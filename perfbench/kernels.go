package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"incxml/internal/answer"
	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/conj"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/mediator"
	"incxml/internal/obs"
	"incxml/internal/refine"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// Kernel-pool parameters.
const (
	kernelChains   = 24      // distinct Example 3.2 chains
	kernelCatalogs = 12      // distinct catalog knowledge states
	kernelSteps    = 1 << 22 // step budget per call: generous, so verdicts are exact
)

// chain is one Example 3.2 refinement chain over its own value range:
// the knowledge after observing BlowupQuery(v) with an empty answer for
// each v in vals.
type chain struct {
	vals []int64
	know *itree.T
}

// catalogState is catalog knowledge after exploring Query4 (all cameras)
// over one random catalog.
type catalogState struct {
	world tree.Tree
	know  *itree.T
}

// kernelPool is the seeded pool every kernels op draws its instance from.
type kernelPool struct {
	chains   []chain
	hard     []*conj.T // hard-empty fixtures with 2^k certificates
	catalogs []catalogState
}

// refineChain folds the chain's observations into the universal tree.
func refineChain(vals []int64) (*itree.T, error) {
	world := workload.BlowupWorld()
	t := refine.Universal(workload.BlowupSigma)
	for _, v := range vals {
		q := workload.BlowupQuery(v)
		var err error
		if t, err = refine.RefineBudgeted(t, q, q.Eval(world), workload.BlowupSigma, budget.New(context.Background(), kernelSteps)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// hardEmpty builds the E18/E21 fixture: a root whose CNF asks for a c
// child (value 3) and k choices between an a child (value 1) and a b child
// (value 2), all labelled x — 2^k certificates, none satisfiable, so
// emptiness must exhaust the space.
func hardEmpty(k int) *conj.T {
	t := conj.New()
	t.Sigma["r"] = ctype.LabelTarget("r")
	for sym, v := range map[ctype.Symbol]int64{"a": 1, "b": 2, "c": 3} {
		t.Sigma[sym] = ctype.LabelTarget("x")
		t.Cond[sym] = cond.EqInt(v)
	}
	cnf := conj.CNF{ctype.Disj{ctype.SAtom{{Sym: "c", Mult: dtd.One}}}}
	for i := 0; i < k; i++ {
		cnf = append(cnf, ctype.Disj{
			ctype.SAtom{{Sym: "a", Mult: dtd.One}},
			ctype.SAtom{{Sym: "b", Mult: dtd.One}},
		})
	}
	t.Mu["r"] = cnf
	t.Roots = []conj.RootChoice{{"r"}}
	return t
}

func buildKernelPool(seed int64) (*kernelPool, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &kernelPool{}
	// Chain lengths cycle through 3..6 whatever the seed: a fold's cost is
	// exponential in the length, so a seeded length mix would make seeds
	// differ in cost rather than in inputs. The seed picks the values.
	for i := 0; i < kernelChains; i++ {
		base := int64(100*(i+1)) + rng.Int63n(50)
		n := 3 + i%4
		vals := make([]int64, n)
		for j := range vals {
			vals[j] = base + int64(j)
		}
		know, err := refineChain(vals)
		if err != nil {
			return nil, err
		}
		p.chains = append(p.chains, chain{vals: vals, know: know})
	}
	for k := 6; k <= 9; k++ {
		p.hard = append(p.hard, hardEmpty(k))
	}
	// The catalogs do not depend on the seed either: completion cost
	// varies with the document. Catalogs without cameras are skipped:
	// their knowledge holds no data for a completion to start from.
	for i := int64(0); len(p.catalogs) < kernelCatalogs; i++ {
		world := workload.RandomCatalog(4+int(i%5), i)
		q := workload.Query4()
		a := q.Eval(world)
		if a.IsEmpty() {
			continue
		}
		r := refine.NewRefiner(workload.CatalogType().Alphabet(), workload.CatalogType())
		if err := r.Observe(q, a); err != nil {
			return nil, err
		}
		p.catalogs = append(p.catalogs, catalogState{world: world, know: r.Reachable()})
	}
	return p, nil
}

// kernelOp is one direct call into a module, checked against the answer
// its instance has by construction.
type kernelOp struct {
	name  string // span name; its layer is the module called
	write bool
	// run makes the call under bud and judges the result.
	run func(bud *budget.B) (exact bool, mismatch string)
}

// nextKernelOp draws the next op. The mix: conjunctive emptiness on an
// Example 3.2 chain (rep non-empty: the world is in it) or on a hard-empty
// fixture (rep empty); a refinement chain (write); one of the three
// answer deciders (read); a mediator completion plan (write).
func (p *kernelPool) nextKernelOp(rng *rand.Rand) kernelOp {
	tri := func(got budget.Tri, err error, want bool) (bool, string) {
		if err != nil && !answer.IsExhausted(err) {
			return false, err.Error()
		}
		if !got.Known() {
			return false, ""
		}
		if got != budget.Of(want) {
			return true, fmt.Sprintf("verdict %s, want %v", got, want)
		}
		return true, ""
	}
	c := p.chains[rng.Intn(len(p.chains))]
	switch k := rng.Intn(10); {
	case k < 2:
		return kernelOp{name: "conj.empty", run: func(bud *budget.B) (bool, string) {
			v, err := conj.FromITree(c.know).EmptyBudgeted(context.Background(), nil, bud)
			return tri(v, err, false)
		}}
	case k < 3:
		h := p.hard[rng.Intn(len(p.hard))]
		return kernelOp{name: "conj.empty", run: func(bud *budget.B) (bool, string) {
			v, err := h.EmptyBudgeted(context.Background(), nil, bud)
			return tri(v, err, true)
		}}
	case k < 5:
		vals := c.vals[:1+rng.Intn(len(c.vals))]
		return kernelOp{name: "refine.observe", write: true, run: func(bud *budget.B) (bool, string) {
			world := workload.BlowupWorld()
			t := refine.Universal(workload.BlowupSigma)
			for _, v := range vals {
				q := workload.BlowupQuery(v)
				var err error
				if t, err = refine.RefineBudgeted(t, q, q.Eval(world), workload.BlowupSigma, bud); err != nil {
					if answer.IsExhausted(err) {
						return false, ""
					}
					return false, err.Error()
				}
			}
			if !t.Member(world) {
				return true, "refined knowledge lost the world"
			}
			return true, ""
		}}
	case k < 9:
		// A value the chain observed is fully answerable and certainly
		// empty; one it did not is possibly non-empty.
		seen := rng.Intn(2) == 0
		v := c.vals[rng.Intn(len(c.vals))]
		if !seen {
			v = c.vals[len(c.vals)-1] + 1 + int64(rng.Intn(3))
		}
		q := workload.BlowupQuery(v)
		switch rng.Intn(3) {
		case 0:
			return kernelOp{name: "answer.decide", run: func(bud *budget.B) (bool, string) {
				got, err := answer.FullyAnswerableBudgeted(c.know, q, bud)
				return tri(got, err, seen)
			}}
		case 1:
			return kernelOp{name: "answer.decide", run: func(bud *budget.B) (bool, string) {
				got, err := answer.PossiblyNonEmptyBudgeted(c.know, q, bud)
				return tri(got, err, !seen)
			}}
		default:
			return kernelOp{name: "answer.decide", run: func(bud *budget.B) (bool, string) {
				got, err := answer.CertainlyNonEmptyBudgeted(c.know, q, bud)
				return tri(got, err, false)
			}}
		}
	default:
		s := p.catalogs[rng.Intn(len(p.catalogs))]
		q := workload.Query1(int64(100 + rng.Intn(200)))
		return kernelOp{name: "mediator.complete", write: true, run: func(*budget.B) (bool, string) {
			ls, err := mediator.Complete(s.know, q)
			if err != nil {
				return false, err.Error()
			}
			if !mediator.Completes(s.know, q, s.world, ls) {
				return true, "local queries do not complete the answer"
			}
			return true, ""
		}}
	}
}

// measureKernels is a closed loop on one goroutine with no HTTP: direct
// calls to conj.FromITree → EmptyBudgeted on Example 3.2 conjunctive chains
// and on the hard-empty 2^k fixture (E18/E21), refine.RefineBudgeted chains
// (write), the answer.*Budgeted deciders (read) and mediator.Complete
// (write). Instances come from a seeded pool of distinct instances, so
// decision-cache hits are a measured share rather than 100%. Set-up builds
// the pool.
//
// Why: conj (Theorems 3.8–3.10) has no served route, so without this
// workload a change to the deciders could regress unseen. It bypasses every
// serving layer: it should move with conj, refine, answer, mediator and
// intern, and is flat on serve, shard, webhouse, certify, store and faulty.
func measureKernels(o options, traced bool) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	reps := setupReps
	if o.short || traced {
		reps = 1
	}
	var pool *kernelPool
	for i := 0; i < reps; i++ {
		answer.ResetCache()
		itree.ResetCache()
		start := time.Now()
		var err error
		if pool, err = buildKernelPool(o.seed); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start))
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		m.trace = tr
	}
	rng := rand.New(rand.NewSource(o.seed))
	var conjSteps, conjCalls int64
	m.before = obs.Default().Snapshot()
	steal := startSteal()
	heap := startHeapSampler()
	cpu := processCPU()
	start := time.Now()
	deadline := start.Add(o.window)
	// The loop is closed throughout: every call is timed, and capacity is
	// the OK calls per second of the window.
	ok := 0
	for time.Now().Before(deadline) {
		op := pool.nextKernelOp(rng)
		bud := budget.New(context.Background(), kernelSteps)
		t0 := time.Now()
		exact, mismatch := op.run(bud)
		lat := time.Since(t0)
		if tr != nil {
			end := tr.now()
			tr.call(op.name, interval{end - lat, end}, bud.Used())
		}
		if op.name == "conj.empty" {
			conjSteps += bud.Used()
			conjCalls++
		}
		m.samples = append(m.samples, sample{
			write: op.write, timed: true, lat: lat,
			ok: mismatch == "", exact: exact, mismatch: mismatch,
		})
		if mismatch == "" {
			ok++
		}
	}
	m.capacity = float64(ok) / time.Since(start).Seconds()
	m.cpu = processCPU() - cpu
	m.heapPeak = heap.finish()
	m.steal = steal.finish()
	m.after = obs.Default().Snapshot()
	m.layer["conj.steps"] = ratio(float64(conjSteps), float64(conjCalls))
	return m, nil
}
