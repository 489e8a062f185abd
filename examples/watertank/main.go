// Watertank walks the paper's §VII case study step by step through the
// public API: hierarchical modeling and Fig. 4 asset refinement,
// exhaustive hazard identification via both the native engine and the
// embedded ASP method (Table II), error-propagation path explanation,
// CEGAR validation against the concrete plant simulator, and the
// mitigation cost-benefit plan.
package main

import (
	"fmt"
	"os"
	"strings"

	"cpsrisk/internal/cegar"
	"cpsrisk/internal/dynamics"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/plant"
	"cpsrisk/internal/temporal"
	"cpsrisk/internal/watertank"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "watertank example:", err)
		os.Exit(1)
	}
}

func run() error {
	// The hierarchical model: the Engineering Workstation is a composite
	// (e-mail client -> browser -> OS — the spam-link infection chain).
	types := watertank.Types()
	m := watertank.HierarchicalModel()
	fmt.Printf("abstract model: %+v\n", m.Stats())
	if err := m.RefineAll(); err != nil {
		return err
	}
	fmt.Printf("refined model:  %+v\n\n", m.Stats())

	// Exhaustive analysis on the flat paper model (Table II).
	table, err := watertank.PaperTableII(false)
	if err != nil {
		return err
	}
	fmt.Println("Table II (native EPA engine):")
	fmt.Println(table)

	tableASP, err := watertank.PaperTableII(true)
	if err != nil {
		return err
	}
	if table != tableASP {
		return fmt.Errorf("ASP and native analyses disagree")
	}
	fmt.Println("ASP engine produced the identical table.")

	// Explain the attack: the propagation path of the compromised
	// workstation to the output valve.
	eng, err := epa.NewEngine(m, watertank.Behaviors(types))
	if err != nil {
		return err
	}
	sc := epa.Scenario{{Component: "ews.email_client", Fault: plant.FaultCompromised}}
	res, err := eng.RunBudget(sc, nil)
	if err != nil {
		return err
	}
	fmt.Println("\nerror propagation path of the refined phishing attack:")
	for _, step := range res.Path(plant.CompOutValve, "cmd", epa.ErrCompromise) {
		fmt.Printf("  %-28s %-12s via %s\n", step.Port, step.Mode, step.Cause.Kind)
	}

	// CEGAR: validate the abstract findings against the plant simulator.
	coarse, err := epa.NewEngine(watertank.Model(), epa.NewBehaviorLibrary(types))
	if err != nil {
		return err
	}
	fine, err := watertank.Engine()
	if err != nil {
		return err
	}
	loop, err := cegar.RunParallel([]cegar.Level{
		{Name: "coarse (default behaviours)", Engine: coarse,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
		{Name: "fine (detailed behaviours)", Engine: fine,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
	}, cegar.NewPlantOracle(), -1, nil, 1)
	if err != nil {
		return err
	}
	fmt.Printf("\nCEGAR: %d levels analyzed, findings per level %v\n",
		loop.Iterations, loop.PerLevelFindings)
	fmt.Printf("confirmed: %d, spurious: %d\n",
		len(loop.Confirmed()), len(loop.Spurious()))
	for _, j := range loop.Spurious() {
		fmt.Printf("  spurious: %s (over-abstraction, per paper Fig. 1 step 5)\n", j.Finding)
	}

	// Refinement options (§II-A): which model elements the spurious
	// findings implicate.
	suggestions, err := cegar.SuggestRefinements(fine, loop.Spurious())
	if err != nil {
		return err
	}
	fmt.Println("\nsuggested refinement targets (most implicated first):")
	for i, s := range suggestions {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-20s implicated in %d spurious finding(s)\n",
			s.Component, s.SpuriousFindings)
	}

	// Parametrization support (§II-A): which likelihood estimates the
	// final ranking actually depends on.
	params, err := hazard.ParametrizationSensitivity(
		fine, watertank.PaperCandidates(), -1, watertank.Requirements())
	if err != nil {
		return err
	}
	fmt.Println("\nlikelihood estimates the prioritization depends on:")
	for _, p := range params {
		marker := "rough estimate is fine"
		if p.TopChanged {
			marker = "CRITICAL: top finding changes under +/-1 level"
		} else if p.RankDisplacement > 0 {
			marker = fmt.Sprintf("shifts top finding by up to %d ranks", p.RankDisplacement)
		}
		fmt.Printf("  %-40s %s\n", p.Mutation.Activation.String(), marker)
	}

	// Most severe confirmed scenario.
	analysis, err := hazard.AnalyzeSweep(fine, watertank.PaperCandidates(), -1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		return err
	}
	top := analysis.Ranked()[0]
	fmt.Printf("\ntop risk: %s violating %s\n", top.Scenario.Key(), strings.Join(top.Violated, ","))

	// The dynamic qualitative model (Listing 2 / Telingo substitute):
	// replay the attack as a bounded-horizon trajectory.
	fmt.Println("\ndynamic qualitative trajectory under the F4 attack:")
	tank := dynamics.WaterTank()
	traj, err := tank.Run(10, []dynamics.Injection{{Key: dynamics.KeyF4}})
	if err != nil {
		return err
	}
	for t := 0; t < traj.Horizon; t++ {
		fmt.Printf("  t=%-2d level=%-8s mode=%-5s alert=%s\n",
			t, traj.Value(t, dynamics.VarLevel),
			traj.Value(t, dynamics.VarMode),
			traj.Value(t, dynamics.VarAlert))
	}
	fmt.Printf("overflowed=%v alerted=%v (matches the concrete simulator)\n",
		dynamics.Overflowed(traj), dynamics.Alerted(traj))

	// Attack synthesis: ask the solver WHICH schedule defeats R1.
	schedule, found, err := dynamics.Synthesize(tank, 10,
		[]string{dynamics.KeyF1, dynamics.KeyF2, dynamics.KeyF3, dynamics.KeyF4},
		2, temporal.MustParseFormula("G !holds(level,overflow)"))
	if err != nil {
		return err
	}
	if found {
		fmt.Printf("\nsynthesized minimal attack against R1: %s\n", schedule.Key())
	}
	_, found, err = dynamics.Synthesize(tank, 10,
		[]string{dynamics.KeyF1, dynamics.KeyF3}, 2,
		temporal.MustParseFormula("G !holds(level,overflow)"))
	if err != nil {
		return err
	}
	fmt.Printf("attack exists with only F1+F3 available: %v (bounded safety proof)\n", found)
	return nil
}
