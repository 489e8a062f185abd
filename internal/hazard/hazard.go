package hazard

import (
	"cmp"
	"encoding/binary"
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
	// Violated lists the IDs of violated requirements, sorted. Rows may
	// share it — synthesized and reused rows hold the pruner's or the
	// reuse oracle's slice, clipped to its length — so it is read-only.
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
	// ranks below it were swept again but not charged to the
	// MaxScenarios cap.
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
	// Retries counts transient per-scenario failures recovered by the
	// retry-with-backoff path.
	Retries int64
	// Executed counts scenarios evaluated by an EPA engine run. With
	// neither pruning nor reuse and no truncation it equals Scenarios.
	Executed int64
	// Pruned counts rows synthesized by dominance: the scenario had a
	// recorded violating subset for every requirement, so its outcome
	// was implied without an EPA run.
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
}

// Throughput returns scenarios per second (0 for an instant sweep).
func (s *SweepStats) Throughput() float64 {
	if s == nil || s.Duration <= 0 {
		return 0
	}
	return float64(s.Scenarios) / s.Duration.Seconds()
}

// publishSweep files one sweep's effort and its resume provenance (nil
// for a fresh sweep) onto the metrics registry (no-op without a
// registry).
func publishSweep(reg *obs.Registry, sw *SweepStats, resume *ResumeInfo, epaRuns int) {
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
	if resume != nil {
		reg.Counter("sweep.restored").Add(int64(resume.FromRank))
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
// the scenario risk. id is the row's S<n> ID (see scenarioID).
func scoreResult(id string, sc epa.Scenario, mask []byte, res *epa.Result, muts []faults.Mutation, reqs []Requirement) ScenarioResult {
	return newRow(id, sc, mask, muts, reqs, nil, func(i int) bool {
		return Eval(reqs[i].Condition, sc, res)
	})
}

// newRow is the one row constructor: the executed, synthesized and ASP
// rows all come from it, which is what keeps their IDs, Violated order
// and risk scores byte-identical. id is the row's ID, which derives from
// its 0-based stream position alone (see scenarioID); mask is the
// scenario's candidate bitmask over muts (see appendMask); violated
// reports whether requirement reqs[i] is violated. known, when non-nil,
// is the sorted violated set the caller already holds: if every ID in it
// is a requirement of reqs, the row shares it, clipped to its length,
// instead of building a copy; otherwise the row builds its own. Violated
// stays nil when nothing is violated.
func newRow(id string, sc epa.Scenario, mask []byte, muts []faults.Mutation, reqs []Requirement, known []string, violated func(i int) bool) ScenarioResult {
	sr := ScenarioResult{ID: id, Scenario: sc}
	var maxSeverity qual.Level
	n := 0
	for i := range reqs {
		if !violated(i) {
			continue
		}
		if n == 0 || reqs[i].Severity > maxSeverity {
			maxSeverity = reqs[i].Severity
		}
		n++
		if known == nil {
			sr.Violated = append(sr.Violated, reqs[i].ID)
		}
	}
	// reqs holds distinct IDs, so n counts the IDs of known that are
	// requirements; n == len(known) means known is exactly the set.
	switch {
	case known == nil:
		sort.Strings(sr.Violated)
	case n == 0:
	case n == len(known):
		sr.Violated = known[:n:n]
	default:
		sr.Violated = make([]string, 0, n)
		for i := range reqs {
			if violated(i) {
				sr.Violated = append(sr.Violated, reqs[i].ID)
			}
		}
		sort.Strings(sr.Violated)
	}
	minLikelihood, first := qual.VeryLow, true
	for j, b := range mask {
		for ; b != 0; b &= b - 1 {
			l := muts[j*8+bits.TrailingZeros8(b)].Likelihood
			if first || l < minLikelihood {
				minLikelihood, first = l, false
			}
		}
	}
	sr.Risk = risk.Score(sr.ID, len(sc), minLikelihood, n, maxSeverity)
	return sr
}

// appendMask renders a candidate-index combination as a bitmask over the
// candidate set — what newRow and the pruning index read — into dst,
// which it returns.
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
	return string(appendScenarioID(b[:0], seq))
}

// appendScenarioID appends the ID of the row at stream position seq to
// dst.
func appendScenarioID(dst []byte, seq int) []byte {
	return strconv.AppendInt(append(dst, 'S'), int64(seq)+1, 10)
}

// chunkIDs holds the IDs of one sweep chunk's rows, rendered into one
// string so a chunk allocates one ID string instead of one per row.
type chunkIDs struct {
	s    string
	ends [sweepChunkSize + 1]int32
}

// render fills ids with the IDs of the n rows from stream position
// baseSeq (n <= sweepChunkSize).
func (ids *chunkIDs) render(baseSeq, n int) {
	var sb strings.Builder
	var b [24]byte
	sb.Grow(n * len(appendScenarioID(b[:0], baseSeq+n-1)))
	for i := 0; i < n; i++ {
		sb.Write(appendScenarioID(b[:0], baseSeq+i))
		ids.ends[i+1] = int32(sb.Len())
	}
	ids.s = sb.String()
}

// id returns row i's ID, a substring of the rendered string.
func (ids *chunkIDs) id(i int) string { return ids.s[ids.ends[i]:ids.ends[i+1]] }

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

// ASPOptions parameterizes the ASP analysis.
type ASPOptions struct {
	// Budget governs grounding and search effort (nil = unlimited).
	Budget *budget.Budget
	// Deprecated: ignored; a session is one engine.
	SolverWorkers int
}

// AnalyzeASPOpts performs the same exhaustive analysis as AnalyzeSweep
// through the embedded formal method: the EPA encoding plus the
// scenario-space choice plus the compiled violation rules, solved for all
// answer sets. Scenario IDs are assigned after sorting models into the
// native enumeration order so the two paths are directly comparable.
//
// The options' budget (nil = unlimited) caps grounding (aborting with
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
// cardinality-ordered prefix.
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
	sess, err := solver.NewSession(prog, solver.Options{Budget: abud})
	if err != nil {
		return nil, err
	}
	defer sess.Close()

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
		results[i] = newRow(scenarioID(i), row.sc, appendMask(nil, row.idx, maskLen), muts, reqs, nil, func(j int) bool {
			return row.m.Contains(violatedAtoms[j])
		})
	}
	out := &Analysis{Requirements: reqs, Scenarios: results, Truncation: trunc}
	st := sess.Stats()
	st.Duration = time.Since(start)
	out.SolverStats = &st
	solver.PublishStats(obs.RegistryFromContext(obsCtx), &st)
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
//
// It sorts a compact key per row rather than the rows: rankKeyOf packs
// risk.Compare's level and fault-count fields into one integer, and the
// ID's first eight bytes, big-endian, order like the ID itself unless
// they tie, when the IDs themselves are compared. The row index breaks
// the remaining ties, which makes the unstable sort reproduce
// risk.Rank's stable one.
func (a *Analysis) Ranked() []ScenarioResult {
	keys := make([]rankKey, len(a.Scenarios))
	for i := range a.Scenarios {
		keys[i] = rankKeyOf(&a.Scenarios[i].Risk, i)
	}
	slices.SortFunc(keys, func(x, y rankKey) int {
		if x.key != y.key {
			return cmp.Compare(x.key, y.key)
		}
		if x.prefix != y.prefix {
			return cmp.Compare(x.prefix, y.prefix)
		}
		if xid, yid := a.Scenarios[x.index].Risk.ID, a.Scenarios[y.index].Risk.ID; len(xid) > 8 || len(yid) > 8 || len(xid) != len(yid) {
			if c := strings.Compare(xid, yid); c != 0 {
				return c
			}
		}
		return cmp.Compare(x.index, y.index)
	})
	out := make([]ScenarioResult, len(keys))
	for k, key := range keys {
		out[k] = a.Scenarios[key.index]
	}
	return out
}

// rankKey is one row's sort key in Ranked.
type rankKey struct {
	// key packs risk, severity and likelihood (descending) and the fault
	// count (ascending), 16 bits each, most significant first.
	key uint64
	// prefix is the ID's first eight bytes, big-endian, zero-padded.
	prefix uint64
	index  int
}

// rankKeyOf builds row i's rank key. Levels from risk.Score lie on the
// five-level scale and a fault count is a scenario's length, so 16 bits
// per field order them exactly; values past the field saturate.
func rankKeyOf(r *risk.ScenarioRisk, i int) rankKey {
	desc := func(l qual.Level) uint64 { return math.MaxUint16 - uint64(min(max(l, 0), math.MaxUint16)) }
	k := rankKey{index: i}
	k.key = desc(r.Risk)<<48 | desc(r.Severity)<<32 | desc(r.Likelihood)<<16 | uint64(min(max(r.Faults, 0), math.MaxUint16))
	var p [8]byte
	copy(p[:], r.ID)
	k.prefix = binary.BigEndian.Uint64(p[:])
	return k
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
