// Package cpsrisk holds the top-level experiment harness: one benchmark
// per table and figure of the paper's evaluation (see DESIGN.md for the
// experiment index) plus scalability sweeps for the substrates. Run with:
//
//	go test -bench=. -benchmem
package cpsrisk

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"cpsrisk/internal/artifact"
	"cpsrisk/internal/cegar"
	"cpsrisk/internal/core"
	"cpsrisk/internal/dynamics"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/hierarchy"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/mitigation"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/optimize"
	"cpsrisk/internal/plant"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/report"
	"cpsrisk/internal/risk"
	"cpsrisk/internal/rough"
	"cpsrisk/internal/sensitivity"
	"cpsrisk/internal/serve"
	"cpsrisk/internal/solver"
	"cpsrisk/internal/sysmodel"
	"cpsrisk/internal/temporal"
	"cpsrisk/internal/watertank"
)

// BenchmarkTableI_RiskMatrix regenerates paper Table I (experiment T1).
func BenchmarkTableI_RiskMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := report.TableI()
		if !strings.Contains(out, "VH") {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTableII_CaseStudy regenerates paper Table II (experiment T2)
// through both analysis paths.
func BenchmarkTableII_CaseStudy(b *testing.B) {
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := watertank.PaperTableII(false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("asp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := watertank.PaperTableII(true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig1_PipelineEndToEnd runs the full Fig. 1 pipeline on the case
// study (experiment F1), including CEGAR validation and optimization.
func BenchmarkFig1_PipelineEndToEnd(b *testing.B) {
	types := watertank.Types()
	cfg := core.Config{
		Model:          watertank.Model(),
		Types:          types,
		Behaviors:      watertank.Behaviors(types),
		KB:             kb.MustDefaultKB(),
		Requirements:   watertank.Requirements(),
		ExtraMutations: watertank.PaperCandidates(),
		MaxCardinality: -1,
		Optimize:       true,
		Budget:         -1,
		Oracle:         cegar.NewPlantOracle(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Analysis.Hazards()) == 0 {
			b.Fatal("no hazards")
		}
	}
}

// BenchmarkObsOverhead measures the observability tax on the Fig. 1
// pipeline: "off" runs with no trace or metrics configured — the hot
// paths must collapse to one nil pointer check each — while "on"
// attaches a span tree and metrics registry and snapshots both. The
// pair is the evidence behind the overhead contract (disabled tracing
// regresses the tracked suite by <= 2%).
func BenchmarkObsOverhead(b *testing.B) {
	types := watertank.Types()
	base := core.Config{
		Model:          watertank.Model(),
		Types:          types,
		Behaviors:      watertank.Behaviors(types),
		KB:             kb.MustDefaultKB(),
		Requirements:   watertank.Requirements(),
		ExtraMutations: watertank.PaperCandidates(),
		MaxCardinality: -1,
		Optimize:       true,
		Budget:         -1,
		Oracle:         cegar.NewPlantOracle(),
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Trace = obs.New("assessment")
			cfg.Metrics = obs.NewRegistry()
			a, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if a.Trace == nil || a.Trace.Count("hazard") != 1 || a.Metrics == nil {
				b.Fatal("observability output missing")
			}
		}
	})
}

// BenchmarkFig2_RiskAttributeTree sweeps the O-RA attribute tree
// derivation over all leaf combinations (experiment F2).
func BenchmarkFig2_RiskAttributeTree(b *testing.B) {
	s := qual.FiveLevel()
	for i := 0; i < b.N; i++ {
		var checksum int
		for cf := s.Min(); cf <= s.Max(); cf++ {
			for tc := s.Min(); tc <= s.Max(); tc++ {
				for rs := s.Min(); rs <= s.Max(); rs++ {
					d := risk.Derive(risk.Attributes{
						ContactFrequency:    cf,
						ProbabilityOfAction: qual.Medium,
						ThreatCapability:    tc,
						ResistanceStrength:  rs,
						PrimaryLoss:         qual.High,
					})
					checksum += int(d.Risk)
				}
			}
		}
		if checksum == 0 {
			b.Fatal("degenerate sweep")
		}
	}
}

// BenchmarkFig3_HierarchicalEvaluation runs the three evaluation focuses
// of the Fig. 3 matrix on the hierarchical case study (experiment F3).
func BenchmarkFig3_HierarchicalEvaluation(b *testing.B) {
	k := kb.MustDefaultKB()
	types := watertank.Types()
	for i := 0; i < b.N; i++ {
		// Focus 1: topology propagation on the abstract model.
		m := watertank.HierarchicalModel()
		tank, _ := m.Component(plant.CompTank)
		tank.SetAttr(hierarchy.CriticalityAttr, "VH")
		topo, err := hierarchy.Topology(m, []string{plant.CompEWS})
		if err != nil {
			b.Fatal(err)
		}
		// Refine the hot composites, then focus 2: detailed EPA.
		for _, id := range hierarchy.RefinementPlan(m, topo) {
			if err := m.RefineComponent(id); err != nil {
				b.Fatal(err)
			}
		}
		eng, err := epa.NewEngine(m, watertank.Behaviors(types))
		if err != nil {
			b.Fatal(err)
		}
		muts, err := faults.Candidates(m, types, k, faults.AllSources())
		if err != nil {
			b.Fatal(err)
		}
		analysis, err := hazard.AnalyzeSweep(eng, muts, 1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		// Focus 3: mitigation plan.
		problem := &optimize.Problem{Budget: -1}
		for _, mi := range mitigation.Relevant(k, muts) {
			problem.Options = append(problem.Options, optimize.Option{ID: mi.ID, Cost: mi.Cost})
		}
		problem.Scenarios = mitigation.PrepareLosses(k, analysis, muts)
		if _, _, err := problem.MultiPhase(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_AssetRefinement measures the Fig. 4 asset refinement
// operation itself (experiment F4).
func BenchmarkFig4_AssetRefinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := watertank.HierarchicalModel()
		if err := m.RefineComponent(plant.CompEWS); err != nil {
			b.Fatal(err)
		}
		if err := m.Validate(watertank.Types()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX1_Sensitivity runs the §V-A sensitivity analysis (experiment
// X1) over the full five-factor FAIR tree.
func BenchmarkX1_Sensitivity(b *testing.B) {
	all := []qual.Level{qual.VeryLow, qual.Low, qual.Medium, qual.High, qual.VeryHigh}
	factors := []sensitivity.Factor{
		{Name: "LM", Levels: all},
		{Name: "LEF", Levels: all},
	}
	base := sensitivity.Assignment{"LM": qual.Medium, "LEF": qual.Medium}
	out := func(a sensitivity.Assignment) qual.Level { return risk.ORARisk(a["LM"], a["LEF"]) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sensitivity.Analyze(base, factors, out)
		if err != nil {
			b.Fatal(err)
		}
		if len(sensitivity.Tornado(res)) != 2 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkX2_ScenarioRanking scores and ranks the full case-study
// scenario space (experiment X2).
func BenchmarkX2_ScenarioRanking(b *testing.B) {
	eng, err := watertank.Engine()
	if err != nil {
		b.Fatal(err)
	}
	analysis, err := hazard.AnalyzeSweep(eng, watertank.PaperCandidates(), -1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := analysis.Ranked(); len(got) != 16 {
			b.Fatal("bad ranking")
		}
	}
}

// BenchmarkX3_RoughSets approximates, reduces, and classifies the risk
// decision table (experiment X3).
func BenchmarkX3_RoughSets(b *testing.B) {
	s := qual.FiveLevel()
	var objects []rough.Object
	for lm := s.Min(); lm <= s.Max(); lm++ {
		for lef := s.Min(); lef <= s.Max(); lef++ {
			objects = append(objects, rough.Object{
				ID:       "c" + s.Label(lm) + "_" + s.Label(lef),
				Values:   map[string]string{"LM": s.Label(lm), "LEF": s.Label(lef)},
				Decision: s.Label(risk.ORARisk(lm, lef)),
			})
		}
	}
	tbl, err := rough.NewTable([]string{"LM", "LEF"}, objects)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap := tbl.ApproximateDecision([]string{"LEF"}, "VH")
		if len(ap.Lower) != 0 {
			b.Fatal("unexpected certainty")
		}
		if len(tbl.Reducts()) != 1 {
			b.Fatal("bad reducts")
		}
	}
}

// BenchmarkX4_CEGARLoop runs the two-level abstraction refinement loop
// with the plant oracle (experiment X4).
func BenchmarkX4_CEGARLoop(b *testing.B) {
	types := watertank.Types()
	coarse, err := epa.NewEngine(watertank.Model(), epa.NewBehaviorLibrary(types))
	if err != nil {
		b.Fatal(err)
	}
	fine, err := watertank.Engine()
	if err != nil {
		b.Fatal(err)
	}
	levels := []cegar.Level{
		{Name: "coarse", Engine: coarse,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
		{Name: "fine", Engine: fine,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
	}
	oracle := cegar.NewPlantOracle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cegar.RunParallel(levels, oracle, -1, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations != 2 {
			b.Fatal("unexpected iterations")
		}
	}
}

// BenchmarkX5_MitigationOptimization solves the §IV-D cost-benefit
// problem exactly and greedily (experiment X5).
func BenchmarkX5_MitigationOptimization(b *testing.B) {
	k := kb.MustDefaultKB()
	eng, err := watertank.Engine()
	if err != nil {
		b.Fatal(err)
	}
	muts := watertank.PaperCandidates()
	analysis, err := hazard.AnalyzeSweep(eng, muts, -1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	problem := &optimize.Problem{Budget: -1}
	for _, m := range mitigation.Relevant(k, muts) {
		problem.Options = append(problem.Options, optimize.Option{ID: m.ID, Cost: m.Cost + m.MaintenanceCost})
	}
	problem.Scenarios = mitigation.PrepareLosses(k, analysis, muts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problem.Optimal(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := problem.MultiPhase(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkS1_SolverScaling solves growing EPA encodings exhaustively
// (experiment S1): chains of n guarded nodes, full scenario choice.
func BenchmarkS1_SolverScaling(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			eng, muts := epaChain(b, n)
			prog, err := eng.EncodeASP()
			if err != nil {
				b.Fatal(err)
			}
			faults.EncodeChoice(prog, muts, -1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := solver.SolveProgram(prog, solver.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Models) != 1<<uint(n) {
					b.Fatalf("models = %d", len(res.Models))
				}
			}
		})
	}
}

// BenchmarkS2_EPAScaling runs the native fixpoint on growing chains
// (experiment S2).
func BenchmarkS2_EPAScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			eng, muts := epaChain(b, n)
			sc := epa.Scenario{muts[0].Activation}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunBudget(sc, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkS3_ScenarioSpace enumerates k-of-n scenario spaces and checks
// the combinatorial growth, then sweeps each space through the EPA engine
// sequentially and with the worker pool (experiment S3). sweep-par uses
// GOMAXPROCS workers, so the speedup over sweep-seq shows only on
// multi-core hardware; results are identical either way.
func BenchmarkS3_ScenarioSpace(b *testing.B) {
	eng, muts := epaChain(b, 18)
	reqs := []hazard.Requirement{{
		ID:        "R-S3",
		Severity:  qual.High,
		Condition: hazard.Comp("n17", epa.ErrValue),
	}}
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d/enumerate", k), func(b *testing.B) {
			want, _ := faults.SpaceSize(len(muts), k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var got int64
				faults.EnumerateIndex(len(muts), k, func([]int) bool {
					got++
					return true
				})
				if got != want {
					b.Fatal("size mismatch")
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/sweep-seq", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := hazard.AnalyzeSweep(eng, muts, k, reqs, hazard.SweepConfig{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(a.Hazards()) == 0 {
					b.Fatal("no hazards")
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/sweep-par", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := hazard.AnalyzeSweep(eng, muts, k, reqs, hazard.SweepConfig{Parallelism: 0})
				if err != nil {
					b.Fatal(err)
				}
				if len(a.Hazards()) == 0 {
					b.Fatal("no hazards")
				}
			}
		})
	}
}

// redundantStar builds the pruning worst-case-turned-best-case: n
// identical sensors (corrupt violates, stuck does not) feeding one hub
// watched by the requirement. Dominance kills every superset of a
// violating singleton and symmetry folds the sensors into one orbit
// class, so the pruned sweep executes a tiny fraction of the space.
func redundantStar(b *testing.B, n int) (*epa.Engine, []faults.Mutation, []hazard.Requirement) {
	b.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "sensor",
		Ports: []sysmodel.PortSpec{
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "corrupt", Likelihood: "M"}, {Name: "stuck", Likelihood: "L"},
		},
	})
	types.MustAdd(&sysmodel.ComponentType{
		Name: "hub",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "crash", Likelihood: "L"}},
	})
	m := sysmodel.NewModel("redundant-star")
	m.MustAddComponent(&sysmodel.Component{ID: "hub", Type: "hub"})
	var muts []faults.Mutation
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%02d", i)
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "sensor"})
		m.Connect(id, "out", "hub", "in", sysmodel.SignalFlow)
		muts = append(muts,
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "corrupt"}, Likelihood: qual.Medium},
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "stuck"}, Likelihood: qual.Low})
	}
	muts = append(muts, faults.Mutation{
		Activation: epa.Activation{Component: "hub", Fault: "crash"}, Likelihood: qual.Low})
	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type: "sensor",
		Effects: []epa.FaultEffect{
			{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)},
			{Fault: "stuck", Port: "out", Emit: epa.StateOf(epa.ErrTiming)},
		},
	})
	lib.MustRegister(&epa.TypeBehavior{
		Type:      "hub",
		Effects:   []epa.FaultEffect{{Fault: "crash", Port: "out", Emit: epa.StateOf(epa.ErrOmission)}},
		Transfers: epa.IdentityTransfers("in", "out"),
	})
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		b.Fatal(err)
	}
	reqs := []hazard.Requirement{{
		ID: "R-HUB", Severity: qual.High, Condition: hazard.Comp("hub", epa.ErrValue),
	}}
	return eng, muts, reqs
}

// BenchmarkS3_PrunedSweep measures the tentpole of the pruning work
// (experiment S3, pruned arms): the same redundant plant swept
// exhaustively and with dominance + symmetry pruning. The pruned arm
// asserts the >= 5x reduction in executed scenarios that the
// report-identity tests license.
func BenchmarkS3_PrunedSweep(b *testing.B) {
	eng, muts, reqs := redundantStar(b, 12) // 25 candidates
	for _, k := range []int{4, 5} {
		total, ok := faults.SpaceSize(len(muts), k)
		if !ok {
			b.Fatal("space overflows")
		}
		b.Run(fmt.Sprintf("k=%d/exhaustive", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := hazard.AnalyzeSweep(eng, muts, k, reqs, hazard.SweepConfig{Parallelism: 2})
				if err != nil {
					b.Fatal(err)
				}
				if int64(len(a.Scenarios)) != total {
					b.Fatal("short sweep")
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/pruned", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := hazard.AnalyzeSweep(eng, muts, k, reqs, hazard.SweepConfig{Parallelism: 2, Prune: true})
				if err != nil {
					b.Fatal(err)
				}
				if int64(len(a.Scenarios)) != total {
					b.Fatal("short sweep")
				}
				if a.Sweep.Executed*5 > total {
					b.Fatalf("pruning reduction < 5x: executed %d of %d", a.Sweep.Executed, total)
				}
			}
		})
	}
}

// epaChain builds a linear n-node model with one fault mode per node.
func epaChain(b *testing.B, n int) (*epa.Engine, []faults.Mutation) {
	b.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "node",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "corrupt", Likelihood: "L"}},
	})
	m := sysmodel.NewModel("chain")
	for i := 0; i < n; i++ {
		m.MustAddComponent(&sysmodel.Component{ID: fmt.Sprintf("n%d", i), Type: "node"})
	}
	for i := 0; i+1 < n; i++ {
		m.Connect(fmt.Sprintf("n%d", i), "out", fmt.Sprintf("n%d", i+1), "in", sysmodel.SignalFlow)
	}
	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type:      "node",
		Effects:   []epa.FaultEffect{{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)}},
		Transfers: epa.IdentityTransfers("in", "out"),
	})
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		b.Fatal(err)
	}
	muts, err := faults.Candidates(m, types, nil, faults.Options{IncludeSpontaneous: true})
	if err != nil {
		b.Fatal(err)
	}
	return eng, muts
}

// guardedChain builds src -> g1 -> ... -> gk -> sink where every guard
// can corrupt its output or (under a bypass fault) pass corruption
// through. Minimal cuts for "sink sees a corrupt value" then span k+1
// cardinality levels — {gk:corrupt}, {g(k-1):corrupt, gk:bypass}, ...,
// {src:corrupt, g1..gk:bypass} — so the enumeration climbs one
// optimization round per level, the workload experiment S4 measures.
func guardedChain(b *testing.B, k int) (*epa.Engine, []faults.Mutation, hazard.Requirement) {
	b.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "node",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "corrupt", Likelihood: "M"},
			{Name: "bypass", Likelihood: "L"},
		},
	})
	m := sysmodel.NewModel("guarded-chain")
	ids := []string{"src"}
	for i := 1; i <= k; i++ {
		ids = append(ids, fmt.Sprintf("g%d", i))
	}
	ids = append(ids, "sink")
	for _, id := range ids {
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "node"})
	}
	for i := 0; i+1 < len(ids); i++ {
		m.Connect(ids[i], "out", ids[i+1], "in", sysmodel.SignalFlow)
	}
	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type:    "node",
		Effects: []epa.FaultEffect{{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)}},
		Transfers: []epa.TransferRule{
			{From: "in", Match: epa.StateOf(epa.ErrValue), To: "out",
				Emit: epa.StateOf(epa.ErrValue), WhenFault: "bypass"},
		},
	})
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		b.Fatal(err)
	}
	muts := []faults.Mutation{{
		Activation: epa.Activation{Component: "src", Fault: "corrupt"},
		Likelihood: qual.Medium, Sources: []string{"fault_mode"},
	}}
	for i := 1; i <= k; i++ {
		g := fmt.Sprintf("g%d", i)
		muts = append(muts,
			faults.Mutation{Activation: epa.Activation{Component: g, Fault: "corrupt"},
				Likelihood: qual.Medium, Sources: []string{"fault_mode"}},
			faults.Mutation{Activation: epa.Activation{Component: g, Fault: "bypass"},
				Likelihood: qual.Low, Sources: []string{"fault_mode"}})
	}
	req := hazard.Requirement{
		ID: "S4", Severity: qual.High,
		Condition: hazard.Comp("sink", epa.ErrValue),
	}
	return eng, muts, req
}

// BenchmarkS4_MultiShot contrasts persistent solver sessions with their
// single-shot equivalents (experiment S4). The cuts arm enumerates the
// guarded chain's minimal cut sets: it grounds once and streams blocking
// constraints into the live session (the single-shot reference, which
// re-grounds every optimization round, is test code in internal/hazard
// and benchmarked there by BenchmarkMinimalCutsASP). The horizon pair
// checks a bounded-liveness property at growing horizons: the rebuild
// arm recompiles and re-grounds the unrolling per horizon, the
// incremental arm extends one session with only the new time steps.
func BenchmarkS4_MultiShot(b *testing.B) {
	const guards = 6
	eng, muts, req := guardedChain(b, guards)
	b.Run("cuts/incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cuts, err := hazard.MinimalCutsASP(eng, muts, req, 0, hazard.ASPOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(cuts) != guards+1 {
				b.Fatalf("cuts = %d, want %d", len(cuts), guards+1)
			}
		}
	})

	// A requirement suite over the tank events, checked at every horizon:
	// the per-horizon work is dominated by compiling and grounding the
	// formula encodings, which the incremental arm does exactly once.
	suite := []temporal.Formula{
		temporal.Globally(temporal.Implies(temporal.P("overflow"), temporal.Finally(temporal.P("alerted")))),
		temporal.Finally(temporal.P("overflow")),
		temporal.Globally(temporal.Not(temporal.And(temporal.P("overflow"), temporal.P("alerted")))),
		temporal.Until(temporal.Not(temporal.P("alerted")), temporal.P("overflow")),
		temporal.Release(temporal.P("overflow"), temporal.Not(temporal.P("alerted"))),
		temporal.Finally(temporal.And(temporal.P("overflow"), temporal.Next(temporal.P("alerted")))),
		temporal.Globally(temporal.Or(temporal.P("overflow"), temporal.WeakNext(temporal.P("alerted")))),
		temporal.Implies(temporal.Finally(temporal.P("alerted")), temporal.Finally(temporal.P("overflow"))),
	}
	horizons := []int{5, 10, 15, 20}
	tick := func(prog *logic.Program, t int) {
		if t%3 == 1 {
			prog.AddFact(logic.A("overflow", logic.Num(t)))
		}
		if t%3 == 2 {
			prog.AddFact(logic.A("alerted", logic.Num(t)))
		}
	}
	// Ground truth per horizon from the native evaluator.
	want := map[int][]bool{}
	for _, h := range horizons {
		tr := make(temporal.Trace, h)
		for t := 0; t < h; t++ {
			st := temporal.State{}
			if t%3 == 1 {
				st["overflow"] = true
			}
			if t%3 == 2 {
				st["alerted"] = true
			}
			tr[t] = st
		}
		for _, f := range suite {
			want[h] = append(want[h], temporal.Eval(f, tr))
		}
	}
	check := func(b *testing.B, h int, m solver.Model, preds []string) {
		b.Helper()
		for fi, pred := range preds {
			if m.Contains(pred+"(0)") != want[h][fi] {
				b.Fatalf("h=%d formula %d: wrong verdict", h, fi)
			}
		}
	}
	b.Run("horizon/incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inc, err := temporal.NewIncremental(horizons[0])
			if err != nil {
				b.Fatal(err)
			}
			preds := make([]string, len(suite))
			for fi, f := range suite {
				if preds[fi], err = inc.Compile(f); err != nil {
					b.Fatal(err)
				}
			}
			next := 0
			for hi, h := range horizons {
				if h > inc.Horizon() {
					if err := inc.Extend(h - inc.Horizon()); err != nil {
						b.Fatal(err)
					}
				}
				facts := &logic.Program{}
				for ; next < h; next++ {
					tick(facts, next)
				}
				if err := inc.Add(facts); err != nil {
					b.Fatal(err)
				}
				// Re-verify the suite at every tracked horizon — the single
				// grounding answers each bound by one assumption flip.
				for _, q := range horizons[:hi+1] {
					res, err := inc.Solve(q, nil, solver.Options{MaxModels: 1})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Models) != 1 {
						b.Fatalf("h=%d: %d models", q, len(res.Models))
					}
					check(b, q, res.Models[0], preds)
				}
			}
			inc.Close()
		}
	})
	b.Run("horizon/rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for hi := range horizons {
				for _, q := range horizons[:hi+1] {
					prog := &logic.Program{}
					for t := 0; t < q; t++ {
						tick(prog, t)
					}
					u := temporal.NewUnroller(q)
					u.EnsureTime(prog)
					preds := make([]string, len(suite))
					var err error
					for fi, f := range suite {
						if preds[fi], err = u.Compile(prog, f); err != nil {
							b.Fatal(err)
						}
					}
					res, err := solver.SolveProgram(prog, solver.Options{MaxModels: 1})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Models) != 1 {
						b.Fatalf("h=%d: %d models", q, len(res.Models))
					}
					check(b, q, res.Models[0], preds)
				}
			}
		}
	})
}

// redundantCutsProgram encodes minimal-cut enumeration over a
// defense-in-depth architecture: the system is violated only when every
// one of `groups` defensive layers is breached, and a layer is breached
// when any of its `size` (randomly shared) elements is compromised. A
// minimal cut is then a minimum hitting set over the layers — the
// NP-hard core of minimal-cut analysis that the EPA chain models never
// reach (their OR-only propagation keeps cuts propagation-easy). The
// fixed seed makes the instance reproducible across runs and arms.
func redundantCutsProgram(elems, groups, size int, seed int64) *logic.Program {
	rng := rand.New(rand.NewSource(seed))
	prog := &logic.Program{}
	name := func(e int) logic.Term { return logic.Sym(fmt.Sprintf("e%02d", e)) }
	for i := 0; i < elems; i++ {
		prog.AddFact(logic.A("elem", name(i)))
	}
	prog.AddRule(logic.ChoiceRule(logic.Unbounded, logic.Unbounded, []logic.ChoiceElem{{
		Atom: logic.A("active", logic.Var("E")),
		Cond: []logic.Literal{logic.Pos(logic.A("elem", logic.Var("E")))},
	}}))
	var all []logic.BodyElem
	for g := 0; g < groups; g++ {
		breached := logic.A("breached", logic.Num(g))
		seen := map[int]bool{}
		for len(seen) < size {
			e := rng.Intn(elems)
			if seen[e] {
				continue
			}
			seen[e] = true
			prog.AddRule(logic.NormalRule(breached, logic.Pos(logic.A("active", name(e)))))
		}
		all = append(all, logic.Pos(breached))
	}
	prog.AddRule(logic.NormalRule(logic.A("violated"), all...))
	prog.AddRule(logic.Constraint(logic.Not(logic.A("violated"))))
	prog.AddMinimize(logic.MinimizeElem{
		Weight: logic.Num(1), Priority: 1,
		Tuple: []logic.Term{logic.Var("E")},
		Cond:  []logic.BodyElem{logic.Pos(logic.A("active", logic.Var("E")))},
	})
	return prog
}

// enumerateRedundantCuts runs the deep cut-enumeration loop on one
// session: each round proves the current cardinality level optimal,
// collects its complete cut batch, blocks every cut, and re-queries the
// retained session — the MinimalCutsASP loop at the solver level.
func enumerateRedundantCuts(prog *logic.Program, rounds int) (int, error) {
	sess, err := solver.NewSession(prog, solver.Options{})
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	cuts := 0
	for r := 0; r < rounds; r++ {
		res, err := sess.SolveAssuming(nil, solver.Options{Optimize: true})
		if err != nil {
			return 0, err
		}
		if len(res.Models) == 0 {
			break
		}
		cuts += len(res.Models)
		block := &logic.Program{}
		for _, m := range res.Models {
			var body []logic.BodyElem
			for _, atom := range m.WithPredicate("active") {
				elem := strings.TrimSuffix(strings.TrimPrefix(atom, "active("), ")")
				body = append(body, logic.Pos(logic.A("active", logic.Sym(elem))))
			}
			block.AddRule(logic.Constraint(body...))
		}
		if err := sess.Add(block); err != nil {
			return 0, err
		}
	}
	return cuts, nil
}

// BenchmarkS5_DeepCuts runs deep minimal-cut enumeration over a
// redundant defense-in-depth instance (experiment S5), the hardest ASP
// workload in the suite and the only benchmark where search, not
// grounding, dominates solver time: the optimization round proves the
// cardinality level optimal before enumerating its cuts.
func BenchmarkS5_DeepCuts(b *testing.B) {
	const (
		elems  = 36
		groups = 80
		size   = 3
		seed   = 7
		rounds = 1
	)
	prog := redundantCutsProgram(elems, groups, size, seed)
	for i := 0; i < b.N; i++ {
		cuts, err := enumerateRedundantCuts(prog, rounds)
		if err != nil {
			b.Fatal(err)
		}
		if cuts == 0 {
			b.Fatal("degenerate instance: no cuts")
		}
	}
}

// BenchmarkAblation_Abstraction contrasts the two abstraction levels of
// the behaviour model (DESIGN.md ablation): the conservative default
// behaviours against the detailed case-study behaviours, measuring both
// runtime and the hazard over-approximation each produces.
func BenchmarkAblation_Abstraction(b *testing.B) {
	types := watertank.Types()
	coarseEng, err := epa.NewEngine(watertank.Model(), epa.NewBehaviorLibrary(types))
	if err != nil {
		b.Fatal(err)
	}
	fineEng, err := watertank.Engine()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		eng  *epa.Engine
	}{
		{"coarse-default-behaviors", coarseEng},
		{"fine-detailed-behaviors", fineEng},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var hazards int
			for i := 0; i < b.N; i++ {
				analysis, err := hazard.AnalyzeSweep(tc.eng, watertank.PaperCandidates(), -1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				hazards = len(analysis.Hazards())
			}
			b.ReportMetric(float64(hazards), "hazards")
		})
	}
}

// BenchmarkAblation_MaxCardinality sweeps the scenario-cardinality bound:
// the analysis cost grows with the scenario space while the hazard set
// saturates (monotone analyses find every singleton-rooted hazard early).
func BenchmarkAblation_MaxCardinality(b *testing.B) {
	eng, err := watertank.Engine()
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var hazards int
			for i := 0; i < b.N; i++ {
				analysis, err := hazard.AnalyzeSweep(eng, watertank.PaperCandidates(), k, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				hazards = len(analysis.Hazards())
			}
			b.ReportMetric(float64(hazards), "hazards")
		})
	}
}

// s6Fixture builds the per-arm config factory for the delta
// re-assessment benchmark: make(rev) returns a fresh Config whose model
// carries a one-component metadata edit stamped rev ("" = the baseline
// model). The libraries behind the config are constructed once and
// shared — the artifact cache identifies them by pointer.
type s6Fixture struct {
	name string
	make func(rev string) core.Config
}

func s6Fixtures(b *testing.B) []s6Fixture {
	b.Helper()
	// Fig. 1 case study over the full mutation surface: spontaneous and
	// KB-derived candidates on top of the paper's scenario set, at
	// cardinality 4.
	wtTypes := watertank.Types()
	wtBehaviors := watertank.Behaviors(wtTypes)
	wtReqs := watertank.Requirements()
	wtKB := kb.MustDefaultKB()
	fig1 := func(rev string) core.Config {
		m := watertank.Model()
		if rev != "" {
			c, _ := m.Component(plant.CompTank)
			c.SetAttr("rev", rev)
		}
		return core.Config{
			Model:           m,
			Types:           wtTypes,
			Behaviors:       wtBehaviors,
			KB:              wtKB,
			Requirements:    wtReqs,
			ExtraMutations:  watertank.PaperCandidates(),
			MutationSources: faults.AllSources(),
			MaxCardinality:  4,
		}
	}

	// The sme-plant model (models/sme-plant.json rebuilt in code — the
	// benchmark measures re-assessment, not JSON decoding) at cardinality
	// 3, mirroring the CLI's derived requirement over the criticality-VH
	// press.
	typesData, err := os.ReadFile("models/types.json")
	if err != nil {
		b.Fatal(err)
	}
	smeTypes, err := sysmodel.ReadTypesJSON(bytes.NewReader(typesData))
	if err != nil {
		b.Fatal(err)
	}
	var pressConds []hazard.Condition
	for _, mode := range epa.AllModes {
		pressConds = append(pressConds, hazard.Comp("press", mode))
	}
	smeReqs := []hazard.Requirement{{
		ID: "RC", Severity: qual.High, Condition: hazard.Any(pressConds...),
	}}
	sme := func(rev string) core.Config {
		m := sysmodel.NewModel("sme-plant")
		m.MustAddComponent(&sysmodel.Component{ID: "office_ws", Type: "workstation",
			Attrs: map[string]string{"exposure": "public", "version": "10"}})
		m.MustAddComponent(&sysmodel.Component{ID: "scada", Type: "scada_server",
			Attrs: map[string]string{"version": "5.0"}})
		m.MustAddComponent(&sysmodel.Component{ID: "plc1", Type: "plc",
			Attrs: map[string]string{"version": "fw2.3"}})
		m.MustAddComponent(&sysmodel.Component{ID: "panel", Type: "hmi"})
		m.MustAddComponent(&sysmodel.Component{ID: "press", Type: "actuator",
			Attrs: map[string]string{"criticality": "VH"}})
		m.Connect("office_ws", "net", "scada", "fromit", sysmodel.SignalFlow)
		m.Connect("scada", "toplc", "plc1", "in", sysmodel.SignalFlow)
		m.Connect("scada", "tohmi", "panel", "in", sysmodel.SignalFlow)
		m.Connect("plc1", "cmd", "press", "cmd", sysmodel.SignalFlow)
		if rev != "" {
			c, _ := m.Component("panel")
			c.SetAttr("rev", rev)
		}
		return core.Config{
			Model:           m,
			Types:           smeTypes,
			KB:              wtKB,
			Requirements:    smeReqs,
			MutationSources: faults.AllSources(),
			MaxCardinality:  3,
		}
	}
	return []s6Fixture{{"fig1", fig1}, {"sme-plant", sme}}
}

// s6Canonical renders the report content that must match between a
// delta re-assessment and a cold run (effort statistics and the
// resolution stamp excluded).
func s6Canonical(b *testing.B, a *core.Assessment) string {
	b.Helper()
	s := a.Summarize()
	s.Sweep = nil
	s.Solver = nil
	s.Artifact = nil
	s.DurationMS = 0
	data, err := json.Marshal(s)
	if err != nil {
		b.Fatal(err)
	}
	return string(data)
}

// BenchmarkS6_DeltaReassess measures the artifact cache's repeat-run
// promise (experiment S6): assess a base model cold, then re-assess
// after a one-component edit. The cold arm pays the full pipeline every
// iteration; the warm-delta arm resolves against the cached parent and
// re-executes only the invalidated scenario ranks — each iteration uses
// a fresh edit stamp so it exercises the delta path, never the exact
// warm hit. The warm-delta arm also asserts, outside the timed loop,
// that the delta report is byte-identical to a cold run of the same
// edited model.
func BenchmarkS6_DeltaReassess(b *testing.B) {
	for _, fx := range s6Fixtures(b) {
		b.Run(fx.name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := core.Run(fx.make(""))
				if err != nil {
					b.Fatal(err)
				}
				if len(a.Analysis.Scenarios) == 0 {
					b.Fatal("empty analysis")
				}
			}
		})
		b.Run(fx.name+"/warm-delta", func(b *testing.B) {
			ac := artifact.New(0)
			seed := fx.make("")
			seed.ArtifactCache = ac
			if _, err := core.Run(seed); err != nil {
				b.Fatal(err)
			}
			// Identity gate: delta report == cold report for one edit.
			check := fx.make("identity-check")
			check.ArtifactCache = ac
			warm, err := core.Run(check)
			if err != nil {
				b.Fatal(err)
			}
			if warm.Artifact == nil || warm.Artifact.Path != "delta" {
				b.Fatalf("artifact = %+v, want delta", warm.Artifact)
			}
			cold, err := core.Run(fx.make("identity-check"))
			if err != nil {
				b.Fatal(err)
			}
			if s6Canonical(b, warm) != s6Canonical(b, cold) {
				b.Fatal("delta report diverged from cold run")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := fx.make("rev" + strconv.Itoa(i))
				cfg.ArtifactCache = ac
				a, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if a.Artifact == nil || a.Artifact.Path != "delta" {
					b.Fatalf("artifact = %+v, want delta", a.Artifact)
				}
			}
		})
	}
}

// BenchmarkX6_DynamicTrajectory solves the Listing 2-style dynamic
// qualitative model of the tank over a 20-step horizon (experiment X6).
func BenchmarkX6_DynamicTrajectory(b *testing.B) {
	sys := dynamics.WaterTank()
	inj := []dynamics.Injection{{Key: dynamics.KeyF4}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := sys.Run(20, inj)
		if err != nil {
			b.Fatal(err)
		}
		if !dynamics.Overflowed(tr) {
			b.Fatal("no overflow")
		}
	}
}

// BenchmarkS7_ServedWarmPath compares the warm-path latency of the two
// front-ends on the same model (experiment S7): "cli" is an in-process
// core.Run resolving warm against the artifact cache — what a
// riskassess -watch cycle pays — and "served" is the full service round
// trip (HTTP submit, job queue, poll, report fetch) against a riskserve
// instance whose cache is equally warm. The gap is the price of the
// service envelope: HTTP, the async job model, and per-request
// observability.
func BenchmarkS7_ServedWarmPath(b *testing.B) {
	modelBytes, err := os.ReadFile("models/sme-plant.json")
	if err != nil {
		b.Fatal(err)
	}
	tf, err := os.Open("models/types.json")
	if err != nil {
		b.Fatal(err)
	}
	types, err := sysmodel.ReadTypesJSON(tf)
	tf.Close()
	if err != nil {
		b.Fatal(err)
	}

	b.Run("cli", func(b *testing.B) {
		model, err := sysmodel.ReadJSON(bytes.NewReader(modelBytes))
		if err != nil {
			b.Fatal(err)
		}
		reqs, err := hazard.GenericRequirements(model)
		if err != nil {
			b.Fatal(err)
		}
		ac := artifact.New(0)
		cfg := core.Config{
			Model:           model,
			Types:           types,
			KB:              kb.MustDefaultKB(),
			Requirements:    reqs,
			MutationSources: faults.AllSources(),
			MaxCardinality:  1,
			Budget:          -1,
			ArtifactCache:   ac,
		}
		if _, err := core.Run(cfg); err != nil { // cold fill
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if a.Artifact == nil || a.Artifact.Path != "warm" {
				b.Fatalf("artifact = %+v, want warm", a.Artifact)
			}
		}
	})

	b.Run("served", func(b *testing.B) {
		set := core.DefaultSettings()
		set.MaxCardinality = 1
		s, err := serve.New(serve.Options{Types: types, Settings: &set})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Drain(ctx)
		}()
		roundTrip := func() string {
			req, err := http.NewRequest("POST", ts.URL+"/v1/assess", bytes.NewReader(modelBytes))
			if err != nil {
				b.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			var st struct {
				ID           string `json:"id"`
				State        string `json:"state"`
				ArtifactPath string `json:"artifactPath"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			for st.State != "done" && st.State != "failed" {
				r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
				if err != nil {
					b.Fatal(err)
				}
				if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
					b.Fatal(err)
				}
				r.Body.Close()
			}
			if st.State != "done" {
				b.Fatalf("job state %s", st.State)
			}
			r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			return st.ArtifactPath
		}
		if path := roundTrip(); path != "cold" { // cold fill
			b.Fatalf("first round trip resolved %q, want cold", path)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if path := roundTrip(); path != "warm" {
				b.Fatalf("artifact %q, want warm", path)
			}
		}
	})
}
