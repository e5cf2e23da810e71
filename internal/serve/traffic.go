package serve

import (
	"encoding/json"
	"fmt"

	"incxml/internal/workload"
)

// RequestForOp maps one generated workload op (see workload.GenerateTraffic)
// onto the serving surface: the route path and the JSON request body in
// that route's wire shape. Classic ops post an AnswerRequest; extended ops
// post an ExtRequest; reduction ops post a ReductionRequest. Both the
// traffic benchmark and the replay tooling drive servers through this one
// mapping so generated traces stay playable against any serve.Handler.
func RequestForOp(op workload.Op) (path, body string, err error) {
	switch op.Kind {
	case workload.OpExplore, workload.OpLocal, workload.OpComplete:
		b, err := json.Marshal(AnswerRequest{Source: op.Source, Query: op.Query})
		if err != nil {
			return "", "", err
		}
		return "/" + string(op.Kind), string(b), nil
	case workload.OpExtended:
		if op.Ext == nil {
			return "", "", fmt.Errorf("serve: extended op %d/%d has no pattern (replayed trace? regenerate from its config)", op.Session, op.Step)
		}
		b, err := json.Marshal(ExtRequestOf(op.Source, *op.Ext, 0))
		if err != nil {
			return "", "", err
		}
		return "/ext/query", string(b), nil
	case workload.OpReduction:
		if op.Red == nil {
			return "", "", fmt.Errorf("serve: reduction op %d/%d has no spec", op.Session, op.Step)
		}
		b, err := json.Marshal(ReductionRequest{
			Kind: op.Red.Kind, NumVars: op.Red.NumVars, Clauses: op.Red.Clauses,
		})
		if err != nil {
			return "", "", err
		}
		return "/ext/reduction", string(b), nil
	}
	return "", "", fmt.Errorf("serve: unknown op kind %q", op.Kind)
}
