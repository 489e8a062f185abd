package hazard

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/risk"
	"cpsrisk/internal/solver"
)

// Requirement pairs a system requirement with its qualitative violation
// condition over the EPA outcome.
type Requirement struct {
	ID          string
	Description string
	Severity    qual.Level
	Condition   Condition
}

// ScenarioResult is the violation vector of one analyzed scenario — one
// row of the paper's Table II.
type ScenarioResult struct {
	// ID is S<n> in enumeration order (S1 = fault-free).
	ID       string
	Scenario epa.Scenario
	// Violated lists the IDs of violated requirements, sorted.
	Violated []string
	// Risk is the qualitative scenario risk.
	Risk risk.ScenarioRisk
}

// IsHazardous reports whether any requirement is violated.
func (s ScenarioResult) IsHazardous() bool { return len(s.Violated) > 0 }

// Violates reports whether the given requirement is violated. Violated
// is sorted by construction (both analysis paths sort it), so this is a
// binary search — it sits inside every per-requirement loop over the
// scenario space (Summary, MinimalCuts, mitigation loss preparation).
func (s ScenarioResult) Violates(reqID string) bool {
	i := sort.SearchStrings(s.Violated, reqID)
	return i < len(s.Violated) && s.Violated[i] == reqID
}

// Analysis is the outcome of exhaustive hazard identification.
type Analysis struct {
	Requirements []Requirement
	Scenarios    []ScenarioResult
	// Truncation is set when resource governance cut the analysis short.
	// The degradation policy keeps the answer interpretable: Scenarios
	// then holds every fully completed cardinality (partial cardinalities
	// are dropped) and the truncation records the skipped frontier.
	Truncation *budget.Truncation
	// SolverStats reports ASP-path solver effort (nil on the native path).
	SolverStats *solver.Stats
	// Sweep reports how the native scenario sweep executed (nil on the
	// ASP path). Duration is wall clock and therefore not deterministic;
	// everything else in the Analysis is.
	Sweep *SweepStats
	// Resume is set when the sweep restarted from a persisted checkpoint
	// — provenance for the report, not a change in the results: a resumed
	// sweep produces exactly the Analysis an uninterrupted run would.
	Resume *ResumeInfo
}

// ResumeInfo records that a sweep continued from a checkpoint.
type ResumeInfo struct {
	// FromRank is the stream rank the checkpoint certified complete;
	// ranks below it were restored through the result cache.
	FromRank int `json:"fromRank"`
}

// SweepStats describes the execution of one native scenario sweep.
type SweepStats struct {
	// Workers is the worker-pool size after the governor's grant.
	Workers int
	// Scenarios counts the scenario results kept in the analysis.
	Scenarios int
	// Duration is the sweep wall-clock time.
	Duration time.Duration
	// CacheHits / CacheMisses count persistent result-cache lookups
	// (both zero when the sweep ran without a cache).
	CacheHits, CacheMisses int64
	// Retries counts transient per-scenario failures recovered by the
	// retry-with-backoff path.
	Retries int64
	// Restored is the checkpoint frontier the sweep resumed from
	// (0 = fresh sweep).
	Restored int
	// Executed counts scenarios evaluated against a full EPA result —
	// an engine run or a cached state vector. With neither pruning nor
	// reuse and no truncation it equals Scenarios.
	Executed int64
	// Pruned counts rows synthesized by dominance: the scenario had a
	// recorded violating subset for every requirement, so its outcome
	// was implied without an EPA run. Includes synthesized-result
	// records restored from the persistent cache.
	Pruned int64
	// OrbitHits counts rows replicated from a symmetry-orbit sibling
	// (an interchangeable-component permutation of an evaluated
	// scenario).
	OrbitHits int64
	// OrbitClasses is the number of refined interchangeable-component
	// classes the sweep used (0 = no symmetry or pruning off).
	OrbitClasses int
	// Reused counts rows answered by the delta re-assessment oracle
	// (SweepConfig.Reuse): the violated set was carried over from a
	// cached parent analysis without an EPA run.
	Reused int64
	// Shard labels the rank range this sweep covered, as
	// "index/count" ("" = the whole space).
	Shard string
}

// Throughput returns scenarios per second (0 for an instant sweep).
func (s *SweepStats) Throughput() float64 {
	if s == nil || s.Duration <= 0 {
		return 0
	}
	return float64(s.Scenarios) / s.Duration.Seconds()
}

// Analyze enumerates the scenario space (cardinality <= maxCard, negative
// = unbounded) and evaluates every requirement on every scenario with the
// native EPA engine, scoring scenario risk from the mutation likelihoods
// and requirement severities. It is the sweep engine with one worker and
// no budget, cache, pruning or sharding: the exhaustive reference.
func Analyze(eng *epa.Engine, muts []faults.Mutation, maxCard int, reqs []Requirement) (*Analysis, error) {
	return AnalyzeSweep(eng, muts, maxCard, reqs, SweepConfig{Parallelism: 1})
}

// publishSweep files one sweep's effort onto the metrics registry
// (no-op without a registry).
func publishSweep(reg *obs.Registry, sw *SweepStats, epaRuns int) {
	if reg == nil {
		return
	}
	reg.Counter("sweep.scenarios").Add(int64(sw.Scenarios))
	reg.Counter("epa.runs").Add(int64(epaRuns))
	reg.Gauge("sweep.workers").Set(int64(sw.Workers))
	reg.Histogram("sweep.duration_us").Observe(sw.Duration.Microseconds())
	if sw.Retries > 0 {
		reg.Counter("sweep.retries").Add(sw.Retries)
	}
	if sw.Restored > 0 {
		reg.Counter("sweep.restored").Add(int64(sw.Restored))
	}
	if sw.Executed > 0 {
		reg.Counter("sweep.executed").Add(sw.Executed)
	}
	if sw.Pruned > 0 {
		reg.Counter("sweep.pruned").Add(sw.Pruned)
	}
	if sw.OrbitHits > 0 {
		reg.Counter("sweep.orbit_hits").Add(sw.OrbitHits)
	}
	if sw.Reused > 0 {
		reg.Counter("sweep.reused").Add(sw.Reused)
	}
	if sw.OrbitClasses > 0 {
		reg.Gauge("sweep.orbit_classes").Set(int64(sw.OrbitClasses))
	}
}

// scoreResult evaluates every requirement on one EPA outcome and scores
// the scenario risk. seq is the 0-based enumeration position; the
// scenario ID is S<seq+1> (S1 = fault-free), identical at every pool
// width.
func scoreResult(seq int, sc epa.Scenario, mask []byte, res *epa.Result, muts []faults.Mutation, reqs []Requirement) ScenarioResult {
	return newRow(seq, sc, mask, muts, reqs, 0, func(i int) bool {
		return Eval(reqs[i].Condition, sc, res)
	})
}

// newRow is the one row constructor: the executed, synthesized and ASP
// rows all come from it, which is what keeps their IDs, Violated order
// and risk scores byte-identical. mask is the scenario's candidate
// bitmask over muts (see appendMask); violated reports whether
// requirement reqs[i] is violated; hint sizes Violated (0 = unknown).
// Violated stays nil when nothing is violated.
func newRow(seq int, sc epa.Scenario, mask []byte, muts []faults.Mutation, reqs []Requirement, hint int, violated func(i int) bool) ScenarioResult {
	sr := ScenarioResult{ID: scenarioID(seq), Scenario: sc}
	var maxSeverity qual.Level
	for i := range reqs {
		if !violated(i) {
			continue
		}
		if sr.Violated == nil {
			sr.Violated = make([]string, 0, max(hint, 1))
			maxSeverity = reqs[i].Severity
		}
		maxSeverity = max(maxSeverity, reqs[i].Severity)
		sr.Violated = append(sr.Violated, reqs[i].ID)
	}
	sort.Strings(sr.Violated)
	minLikelihood, first := qual.VeryLow, true
	for j, b := range mask {
		for ; b != 0; b &= b - 1 {
			l := muts[j*8+bits.TrailingZeros8(b)].Likelihood
			if first || l < minLikelihood {
				minLikelihood, first = l, false
			}
		}
	}
	sr.Risk = risk.Score(sr.ID, len(sc), minLikelihood, len(sr.Violated), maxSeverity)
	return sr
}

// appendMask renders a candidate-index combination as a bitmask over the
// candidate set — the persistent cache key — into dst, which it returns.
func appendMask(dst []byte, idx []int, maskLen int) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, maskLen)...)
	for _, j := range idx {
		dst[n+j/8] |= 1 << (j % 8)
	}
	return dst
}

// scenarioID renders the ID of the row at 0-based stream position seq.
func scenarioID(seq int) string {
	var b [24]byte
	return string(strconv.AppendInt(append(b[:0], 'S'), int64(seq)+1, 10))
}

// truncateToCompletedCardinality implements the graceful-degradation
// policy after an interruption: drop results of the cardinality that was
// in flight (it is only partially covered) and describe the kept frontier
// in the truncation detail.
func (a *Analysis) truncateToCompletedCardinality(muts []faults.Mutation, maxCard int) {
	n := len(muts)
	if maxCard < 0 || maxCard > n {
		maxCard = n
	}
	kept := len(a.Scenarios)
	completed := -1
	if kept > 0 {
		// The stream is cardinality-ordered, so cardinality c is complete
		// iff all C(n, c) scenarios of that size were produced.
		count := 0
		last := 0
		for _, s := range a.Scenarios {
			if len(s.Scenario) != last {
				count = 0
				last = len(s.Scenario)
			}
			count++
		}
		completed = last
		if count < binomialSat(n, last) {
			completed = last - 1
			for kept > 0 && len(a.Scenarios[kept-1].Scenario) > completed {
				kept--
			}
			a.Scenarios = a.Scenarios[:kept]
		}
	}
	total, totalOK := faults.SpaceSize(n, maxCard)
	var detail string
	if completed < 0 {
		detail = "no cardinality completed"
	} else {
		detail = fmt.Sprintf("completed cardinality <= %d of %d", completed, maxCard)
	}
	if totalOK {
		detail += fmt.Sprintf("; analyzed %d of %d scenarios", kept, total)
	} else {
		detail += fmt.Sprintf("; analyzed %d scenarios of an overflowing space", kept)
	}
	a.Truncation.Detail = detail
}

// binomialSat computes C(n, k), saturating at math.MaxInt/2 (enough for
// completion checks: a partial prefix is always strictly smaller).
func binomialSat(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		if c > math.MaxInt/64 {
			return math.MaxInt / 2
		}
		c = c * (n - i) / (i + 1)
	}
	return c
}

func validateReqs(reqs []Requirement) error {
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.ID == "" {
			return fmt.Errorf("hazard: requirement with empty ID")
		}
		if seen[r.ID] {
			return fmt.Errorf("hazard: duplicate requirement %q", r.ID)
		}
		seen[r.ID] = true
		if r.Condition == nil {
			return fmt.Errorf("hazard: requirement %q has no condition", r.ID)
		}
	}
	return nil
}

// AnalyzeASP performs the same exhaustive analysis through the embedded
// formal method: the EPA encoding plus the scenario-space choice plus the
// compiled violation rules, solved for all answer sets. Scenario IDs are
// assigned after sorting models into the native enumeration order so the
// two paths are directly comparable.
func AnalyzeASP(eng *epa.Engine, muts []faults.Mutation, maxCard int, reqs []Requirement) (*Analysis, error) {
	return AnalyzeASPOpts(eng, muts, maxCard, reqs, ASPOptions{})
}

// ASPOptions parameterizes the ASP analysis.
type ASPOptions struct {
	// Budget governs grounding and search effort (nil = unlimited).
	Budget *budget.Budget
	// SolverWorkers > 1 races that many diversified solver engines per
	// query (portfolio search with clause sharing); <= 1 is the exact
	// single-engine solver. Extra engines beyond the first draw launch
	// slots from the budget's worker-pool governor when one is present.
	SolverWorkers int
	// Deterministic forces single-engine search regardless of
	// SolverWorkers, for byte-identical reports across runs.
	Deterministic bool
	// Session, when non-nil, is a live multi-shot session already
	// grounded for exactly this engine + mutation set + requirement
	// encoding (an artifact-cache holdover — the caller must guarantee
	// the match, which the cache key's model and config hashes do). The
	// analysis then skips encoding and grounding entirely and queries
	// the session directly. Ownership stays with the caller unless
	// KeepSession also fires.
	Session *solver.Session
	// KeepSession, when non-nil, receives the session the analysis used
	// (freshly grounded or passed in) on success, instead of the session
	// being closed on return — the artifact cache retains it, learning
	// and all, for the next warm query. On error a session the analysis
	// created is closed as usual.
	KeepSession func(*solver.Session)
}

// AnalyzeASPOpts is AnalyzeASP under resource governance and solver
// portfolio control. The budget caps grounding (aborting with
// *budget.ExhaustedError — callers fall back to the native engine) and
// the answer-set search (returning the answer sets found so far with
// Analysis.Truncation set). MaxScenarios bounds the number of enumerated
// answer sets.
//
// The analysis is multi-shot: the encoding is grounded once with an
// unbounded fault choice, then one persistent solver session sweeps the
// cardinality levels 0..maxCard, each level selected by exactly-k count
// assumptions on the active/2 predicate. Assumptions only filter stable
// models, so the union over the sweep equals the single bounded solve it
// replaces, while learned clauses and branching heuristics carry from one
// cardinality to the next and an interruption keeps a clean
// cardinality-ordered prefix. The session races SolverWorkers
// diversified engines per cardinality query; the answer-set union is
// identical for any worker count, only wall-clock time changes.
func AnalyzeASPOpts(eng *epa.Engine, muts []faults.Mutation, maxCard int, reqs []Requirement, o ASPOptions) (*Analysis, error) {
	bud := o.Budget
	if err := validateReqs(reqs); err != nil {
		return nil, err
	}
	start := time.Now()
	// One span wraps the whole multi-shot analysis; the session attaches
	// its grounding and per-query sub-spans through the derived budget.
	obsCtx, aspSpan := obs.StartSpan(bud.Context(), "asp")
	defer aspSpan.End()
	abud := bud
	if aspSpan != nil {
		abud = budget.New(obsCtx, bud.Limits())
	}
	sess := o.Session
	if sess == nil {
		prog, err := eng.EncodeASP()
		if err != nil {
			return nil, err
		}
		faults.EncodeChoice(prog, muts, -1)
		for _, r := range reqs {
			if err := EncodeViolation(prog, r.ID, r.Condition); err != nil {
				return nil, err
			}
		}
		sess, err = solver.NewSession(prog, solver.Options{
			Budget:        abud,
			Workers:       o.SolverWorkers,
			Deterministic: o.Deterministic,
		})
		if err != nil {
			return nil, err
		}
	}
	// Session lifetime: on success KeepSession (when set) takes
	// ownership — the session outlives this analysis, warm for the next
	// query stream. Otherwise a session this analysis grounded is closed
	// here, and a caller-provided one is left alone.
	kept := false
	defer func() {
		if !kept && o.Session == nil {
			sess.Close()
		}
	}()

	kmax := maxCard
	if kmax < 0 || kmax > len(muts) {
		kmax = len(muts)
	}
	maxScen := bud.Limits().MaxScenarios
	var models []solver.Model
	var trunc *budget.Truncation
	for k := 0; k <= kmax; k++ {
		opts := solver.Options{Budget: abud}
		if maxScen > 0 {
			opts.MaxModels = maxScen - len(models)
		}
		res, err := sess.SolveAssuming([]solver.Assumption{
			solver.AssumeCountGE("active", k),
			solver.AssumeCountLT("active", k+1),
		}, opts)
		if err != nil {
			return nil, err
		}
		models = append(models, res.Models...)
		if res.Interrupted {
			trunc = &budget.Truncation{
				Stage: "hazard-asp", Reason: res.InterruptReason,
				Detail: fmt.Sprintf("%d answer sets enumerated before interruption", len(models)),
			}
			trunc.Stamp(obsCtx)
			break
		}
		if maxScen > 0 && len(models) >= maxScen {
			trunc = &budget.Truncation{
				Stage: "hazard-asp", Reason: budget.ReasonScenarios,
				Detail: fmt.Sprintf("first %d answer sets kept", len(models)),
			}
			trunc.Stamp(obsCtx)
			break
		}
	}

	// Rows take the native enumeration order — cardinality, then the
	// candidate-index tuple — so both paths give a scenario the same S<n>.
	type aspRow struct {
		m   *solver.Model
		sc  epa.Scenario
		idx []int
	}
	rows := make([]aspRow, len(models))
	keys := activeKeys(muts)
	for i := range models {
		sc, idx := scenarioFromModel(&models[i], muts, keys)
		rows[i] = aspRow{m: &models[i], sc: sc, idx: idx}
	}
	slices.SortFunc(rows, func(a, b aspRow) int {
		if c := cmp.Compare(len(a.idx), len(b.idx)); c != 0 {
			return c
		}
		return slices.Compare(a.idx, b.idx)
	})
	violatedAtoms := make([]string, len(reqs))
	for i, r := range reqs {
		violatedAtoms[i] = logic.A("violated", logic.Sym(r.ID)).Key()
	}
	maskLen := (len(muts) + 7) / 8
	results := make([]ScenarioResult, len(rows))
	for i, row := range rows {
		results[i] = newRow(i, row.sc, appendMask(nil, row.idx, maskLen), muts, reqs, 0, func(j int) bool {
			return row.m.Contains(violatedAtoms[j])
		})
	}
	out := &Analysis{Requirements: reqs, Scenarios: results, Truncation: trunc}
	st := sess.Stats()
	st.Duration = time.Since(start)
	out.SolverStats = &st
	solver.PublishStats(obs.RegistryFromContext(obsCtx), &st)
	if o.KeepSession != nil {
		kept = true
		o.KeepSession(sess)
	}
	return out, nil
}

// activeKeys renders each candidate's activation atom key once, so
// reading many answer sets builds no strings.
func activeKeys(muts []faults.Mutation) []string {
	keys := make([]string, len(muts))
	for i, mu := range muts {
		keys[i] = epa.ActiveAtom(mu.Component, mu.Fault).Key()
	}
	return keys
}

// scenarioFromModel reads the active candidates of an answer set, in
// candidate-set order, with their candidate indices; keys is
// activeKeys(muts).
func scenarioFromModel(m *solver.Model, muts []faults.Mutation, keys []string) (epa.Scenario, []int) {
	var sc epa.Scenario
	var idx []int
	for i, mu := range muts {
		if m.Contains(keys[i]) {
			sc = append(sc, mu.Activation)
			idx = append(idx, i)
		}
	}
	return sc, idx
}

// Hazards returns the hazardous scenarios (at least one violation).
func (a *Analysis) Hazards() []ScenarioResult {
	var out []ScenarioResult
	for _, s := range a.Scenarios {
		if s.IsHazardous() {
			out = append(out, s)
		}
	}
	return out
}

// ByScenario finds the result for a scenario key.
func (a *Analysis) ByScenario(sc epa.Scenario) (ScenarioResult, bool) {
	key := sc.Key()
	for _, s := range a.Scenarios {
		if s.Scenario.Key() == key {
			return s, true
		}
	}
	return ScenarioResult{}, false
}

// Ranked returns the scenarios ordered by risk (paper §IV: prioritize by
// severity and potential impact), in risk.Rank's order.
func (a *Analysis) Ranked() []ScenarioResult {
	order := make([]int, len(a.Scenarios))
	for i := range order {
		order[i] = i
	}
	// The index tiebreak makes the unstable sort reproduce risk.Rank's
	// stable one.
	slices.SortFunc(order, func(i, j int) int {
		if c := risk.Compare(a.Scenarios[i].Risk, a.Scenarios[j].Risk); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	out := make([]ScenarioResult, len(order))
	for k, i := range order {
		out[k] = a.Scenarios[i]
	}
	return out
}

// MinimalCuts returns, per requirement, the minimal hazardous scenarios:
// those violating the requirement such that no proper sub-scenario in the
// analysis also violates it (the qualitative analogue of FTA minimal cut
// sets, §III-A).
func (a *Analysis) MinimalCuts(reqID string) []ScenarioResult {
	var violating []ScenarioResult
	for _, s := range a.Scenarios {
		if s.Violates(reqID) {
			violating = append(violating, s)
		}
	}
	var out []ScenarioResult
	for _, s := range violating {
		minimal := true
		for _, other := range violating {
			if len(other.Scenario) < len(s.Scenario) && isSubScenario(other.Scenario, s.Scenario) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, s)
		}
	}
	return out
}

func isSubScenario(sub, super epa.Scenario) bool {
	for _, a := range sub {
		if !super.Has(a.Component, a.Fault) {
			return false
		}
	}
	return true
}

// Summary renders a compact textual overview.
func (a *Analysis) Summary() string {
	var sb strings.Builder
	hazards := a.Hazards()
	fmt.Fprintf(&sb, "%d scenarios analyzed, %d hazardous\n", len(a.Scenarios), len(hazards))
	for _, r := range a.Requirements {
		n := 0
		for _, s := range a.Scenarios {
			if s.Violates(r.ID) {
				n++
			}
		}
		fmt.Fprintf(&sb, "  %s violated in %d scenarios\n", r.ID, n)
	}
	return sb.String()
}
