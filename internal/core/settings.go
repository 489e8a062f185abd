package core

import (
	"flag"
	"runtime"
	"strings"

	"cpsrisk/internal/budget"
)

// Settings are the assessment settings riskassess and riskserve share:
// both bind them through Bind and run them through Config, so the same
// settings give the same report from either front end. Each field means
// what the Config field of its name means; TopN bounds the text report's
// ranked table (0 = all).
type Settings struct {
	MaxCardinality    int
	UseASP            bool
	Optimize          bool
	Budget            int
	ActiveMitigations map[string]bool
	Parallelism       int
	NoPrune           bool
	Resources         budget.Limits
	TopN              int
}

// DefaultSettings returns the flag defaults of both front ends.
func DefaultSettings() Settings {
	return Settings{
		MaxCardinality: 2,
		Budget:         -1,
		Parallelism:    runtime.NumCPU(),
		TopN:           20,
	}
}

// Bind defines the shared assessment flags on fs, with s's current
// values as their defaults; parsing fs writes into s.
func (s *Settings) Bind(fs *flag.FlagSet) {
	fs.IntVar(&s.MaxCardinality, "maxcard", s.MaxCardinality, "maximum simultaneous activations (-1 = unbounded)")
	fs.BoolVar(&s.UseASP, "asp", s.UseASP, "use the ASP engine for hazard identification")
	fs.BoolVar(&s.Optimize, "optimize", s.Optimize, "run mitigation cost-benefit optimization")
	fs.IntVar(&s.Budget, "budget", s.Budget, "mitigation budget (-1 = unlimited)")
	fs.Func("mitigations", "comma-separated active mitigation `IDs`", func(v string) error {
		s.ActiveMitigations = map[string]bool{}
		for _, id := range strings.Split(v, ",") {
			if id = strings.TrimSpace(id); id != "" {
				s.ActiveMitigations[id] = true
			}
		}
		return nil
	})
	fs.IntVar(&s.Parallelism, "parallel", s.Parallelism, "worker pool for the scenario sweep and oracle checks, shared by all jobs of a service (1 = one worker; results are identical)")
	fs.BoolVar(&s.NoPrune, "no-prune", s.NoPrune, "disable sweep pruning (dominance skipping + symmetry orbits); every scenario runs through the EPA engine")
	fs.DurationVar(&s.Resources.Timeout, "timeout", s.Resources.Timeout, "wall-clock limit per assessment (0 = none); partial results on expiry")
	fs.Int64Var(&s.Resources.MaxDecisions, "max-decisions", s.Resources.MaxDecisions, "cap on ASP solver branching decisions per assessment (0 = unlimited)")
	fs.IntVar(&s.Resources.MaxScenarios, "max-scenarios", s.Resources.MaxScenarios, "cap on analyzed scenarios per assessment (0 = unlimited)")
	fs.IntVar(&s.TopN, "top", s.TopN, "ranked scenarios in the text report (0 = all)")
}

// Config copies s into a Config; the caller adds the per-run fields.
func (s *Settings) Config() Config {
	return Config{
		ActiveMitigations: s.ActiveMitigations,
		MaxCardinality:    s.MaxCardinality,
		UseASP:            s.UseASP,
		Optimize:          s.Optimize,
		Budget:            s.Budget,
		Resources:         s.Resources,
		Parallelism:       s.Parallelism,
		NoPrune:           s.NoPrune,
	}
}
