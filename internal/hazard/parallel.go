package hazard

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/store"
)

// The sweep fans the scenario stream out to a worker pool and merges
// per-scenario results back in enumeration order. It is the only native
// sweep: one worker is a pool of one. Its output is independent of the
// pool size — same S<n> IDs, same ordering, same risks, same budget and
// truncation semantics (largest fully-completed cardinality) — because:
//
//   - the producer assigns each scenario its 0-based stream position
//     (seq) before fan-out, and IDs derive from seq alone;
//   - the MaxScenarios cap is enforced by the producer, so exactly the
//     same prefix of the stream is analyzed at every width;
//   - the merge keeps only the contiguous prefix of completed scenarios
//     below the earliest failure/exhaustion, then applies the same
//     completed-cardinality fallback.
//
// Only the epa.Engine is shared between workers; it is immutable after
// construction and documented safe for concurrent Run calls.
//
// With a SweepConfig the sweep additionally becomes crash-safe: EPA
// results are memoized in a persistent store.Cache keyed by (engine
// hash, scenario bitmask), the contiguous completion frontier is
// checkpointed (cache flushed first — write-ahead), transient failures
// are retried with backoff, and a worker panic degrades to a truncation
// boundary instead of taking the process down.

// sweepChunkSize is how many scenarios ride one channel send. Scenario
// analyses are individually cheap (microseconds on small plants), so
// per-scenario channel operations dominated the pool and made it slower
// than a plain loop at high scenario counts; chunking amortizes
// the synchronization without changing which scenarios are analyzed or
// in what order they are merged.
const sweepChunkSize = 32

// sweepRetries bounds the retry-with-backoff attempts for transient
// per-scenario failures before the failure is treated as real.
const sweepRetries = 3

// SweepConfig bundles the optional machinery around a sweep. The zero
// value is a plain in-memory sweep with default parallelism.
type SweepConfig struct {
	// Budget governs the sweep (nil = unlimited).
	Budget *budget.Budget
	// Parallelism sizes the worker pool (<= 0 = GOMAXPROCS).
	Parallelism int
	// Cache, when set, memoizes EPA state vectors across runs.
	Cache *store.Cache
	// Checkpoint, when set, persists the completion frontier and arms
	// resume-from-checkpoint on the next run over the same inputs.
	Checkpoint *Checkpoint
	// Prune enables dominance pruning and symmetry-orbit replication
	// (see prune.go). The reported Analysis is byte-identical with or
	// without pruning; only the executed-scenario count changes.
	Prune bool
	// ShardIndex/ShardCount split the rank space into ShardCount
	// contiguous balanced ranges; this sweep covers range ShardIndex
	// (0-based). ShardCount <= 1 sweeps the whole space. Shards share a
	// cache namespace, so a final whole-space run over the common cache
	// directory merges their results without recomputation.
	ShardIndex, ShardCount int
	// Reuse, when set, is the delta re-assessment oracle (see
	// internal/artifact and core's delta path): it returns the known
	// violated-requirement set for a scenario whose outcome is provably
	// unchanged from a cached parent analysis. Rows it answers are
	// synthesized without an EPA run and counted in SweepStats.Reused.
	// The oracle must be deterministic for the duration of the sweep and
	// safe for concurrent calls.
	Reuse func(sc epa.Scenario) ([]string, bool)
}

// sweepChunk is a contiguous run of scenarios starting at stream
// position baseSeq, with their candidate bitmasks laid end to end
// (maskLen bytes each, see appendMask).
type sweepChunk struct {
	baseSeq int
	scs     []epa.Scenario
	masks   []byte
}

// sweepOutcome is one worker's verdict on a chunk: the results of the
// completed prefix, plus — if the chunk stopped early — the stream
// position of the first failed scenario with its truncation or error.
// n is the chunk length, which the merge needs to advance the
// completion frontier past fully-completed chunks.
type sweepOutcome struct {
	baseSeq int
	n       int
	srs     []ScenarioResult
	masks   []byte // the chunk's masks, for the cap accountant
	badSeq  int    // first failed seq in the chunk, or -1
	trunc   *budget.Truncation
	err     error
}

// producerOutcome reports how enumeration ended: how many jobs were
// emitted and whether a cap or the budget stopped the stream.
type producerOutcome struct {
	emitted int
	trunc   *budget.Truncation
}

// AnalyzeSweep is the native sweep engine: a pool of cfg.Parallelism
// workers (<= 0 uses runtime.GOMAXPROCS(0); 1 runs one producer and one
// worker goroutine) sweeps the scenario space, with the optional
// persistent result cache and checkpoint/resume. The output is
// deterministic and independent of the pool size. Under a budget the
// sweep degrades gracefully: scenarios stream in cardinality order, the
// budget is polled per scenario (producer and workers), exhaustion drops
// the in-flight cardinality and keeps every fully completed one (partial
// cardinalities would bias the ranking toward lexicographically early
// candidates), the skipped frontier is reported in Analysis.Truncation,
// and MaxScenarios caps the analyzed prefix deterministically. A resumed
// sweep replays enumeration from rank 0 — cached scenarios become
// lookups, uncached ones recompute — so the final Analysis is identical
// to an uninterrupted run; Analysis.Resume records the provenance.
func AnalyzeSweep(eng *epa.Engine, muts []faults.Mutation, maxCard int, reqs []Requirement, cfg SweepConfig) (*Analysis, error) {
	parallelism := cfg.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	bud := cfg.Budget
	if err := validateReqs(reqs); err != nil {
		return nil, err
	}
	// Shard range: absolute stream ranks, balanced split. Scenario IDs
	// derive from the global rank, so shard reports merge coherently.
	shardLo, shardHi := 0, math.MaxInt
	sharded := cfg.ShardCount > 1
	if sharded {
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount {
			return nil, fmt.Errorf("hazard: shard index %d outside [0,%d)", cfg.ShardIndex, cfg.ShardCount)
		}
		total, ok := faults.SpaceSize(len(muts), maxCard)
		if !ok {
			return nil, fmt.Errorf("hazard: scenario space overflows int64; cannot shard")
		}
		m, i := int64(cfg.ShardCount), int64(cfg.ShardIndex)
		lo := i*(total/m) + min(i, total%m)
		size := total / m
		if i < total%m {
			size++
		}
		shardLo, shardHi = int(lo), int(lo+size)
	}
	// Workers beyond the first draw launch slots from the run-wide
	// worker-pool governor when the budget carries one, so a sweep racing
	// other parallel stages (CEGAR validation, solver portfolios) shares
	// one machine-sized pool instead of multiplying. Without a governor
	// the grant is the full request. The first worker always runs.
	gov := bud.Governor()
	grantedWorkers := gov.AcquireUpTo(parallelism - 1)
	defer gov.Release(grantedWorkers)
	parallelism = 1 + grantedWorkers
	start := time.Now()
	limits := bud.Limits()
	inj := bud.Injector()

	// Resume: a checkpoint whose hashes match this exact sweep yields the
	// frontier rank below which scenarios are already paid for — they are
	// replayed through the cache but exempt from the MaxScenarios cap.
	// A shard's floor is its range start, checkpoint or not. The hashes
	// are only computed when a checkpoint will compare or save them.
	resumeFrom := shardLo
	var engHash, mutsHash, reqsHash uint64
	if cfg.Checkpoint != nil {
		cfg.Checkpoint.SetInjector(inj)
		engHash, mutsHash, reqsHash = eng.Hash(), hashMuts(muts), hashReqs(reqs)
		resumeFrom = max(cfg.Checkpoint.Resume(engHash, mutsHash, reqsHash, maxCard), shardLo)
	}

	// Cache keys are bitmasks over the candidate-set index; the candidate
	// set is part of the cache namespace, so the index is stable.
	maskLen := (len(muts) + 7) / 8

	// Pruning state: dominance index, symmetry orbits, synthesized-result
	// codec. nil when pruning is off — the hot path then pays nothing.
	// With a persistent cache the dominance antichain and orbit memo are
	// seeded from every record already on disk, so a shard starting
	// mid-space (or any warm rerun) prunes from rank one instead of
	// rediscovering its index from scratch.
	var pr *pruner
	if cfg.Prune {
		pr = newPruner(eng, muts, reqs)
		pr.seedFromCache(cfg.Cache, eng, muts, maskLen)
	}

	// MaxScenarios accounting. A plain sweep charges every emitted rank
	// at the producer and stops at the cap, at every pool width. When pruning or reuse can synthesize rows, the cap must
	// charge executed-equivalent work only — implied and reused rows are
	// free, or a pruned run would truncate earlier than an exhaustive one
	// despite doing less work. Which rows are implied is worker-timing-
	// dependent, so the charge is decided by the merge instead: a shadow,
	// UNSEEDED pruner replays the merged rows in contiguous rank order —
	// the deterministic sequential-equivalent of the sweep — and the
	// accountant raises the stop flag when the charge reaches the cap.
	// The producer polls the flag; workers in flight overshoot by at most
	// the pipeline depth, and the surplus rows fall above the
	// accountant's truncation rank, which is deterministic across
	// parallelism, cache state, and seeding.
	var acct *capAccountant
	var prodStop atomic.Bool
	if limits.MaxScenarios > 0 && (cfg.Prune || cfg.Reuse != nil) {
		acct = &capAccountant{
			limit:      limits.MaxScenarios,
			resumeFrom: resumeFrom,
			reuse:      cfg.Reuse,
			cut:        math.MaxInt,
			stop:       &prodStop,
		}
		if cfg.Prune {
			acct.shadow = newPruner(eng, muts, reqs)
		}
	}

	// Observability: one span per sweep and per worker, one span per
	// chunk when traced; metrics instruments are resolved once here and
	// updated at chunk granularity from the workers — the race test
	// hammers exactly this path. Untraced runs pay a nil check per chunk.
	obsCtx, sweepSpan := obs.StartSpan(bud.Context(), "sweep")
	defer sweepSpan.End()
	reg := obs.RegistryFromContext(obsCtx)
	cChunks := reg.Counter("sweep.chunks")
	hChunk := reg.Histogram("sweep.chunk_us")

	jobs := make(chan sweepChunk, parallelism*4)
	outcomes := make(chan sweepOutcome, parallelism*4)
	produced := make(chan producerOutcome, 1)

	// Producer: enumerate in order, batching scenarios into chunks tagged
	// with their starting stream position. Budget poll and scenario cap
	// live here, per scenario, so the analyzed prefix is the same at every
	// pool width. Ranks below the resume frontier are
	// emitted (the report needs their rows) but not charged to the cap.
	go func() {
		defer close(jobs)
		seq := shardLo
		var trunc *budget.Truncation
		chunk := sweepChunk{}
		flush := func() {
			if len(chunk.scs) > 0 {
				jobs <- chunk
				chunk = sweepChunk{}
			}
		}
		faults.EnumerateRangeIndex(len(muts), maxCard, int64(shardLo), int64(shardHi), func(idx []int) bool {
			if acct == nil {
				charged := seq - resumeFrom
				if limits.MaxScenarios > 0 && charged >= limits.MaxScenarios {
					trunc = &budget.Truncation{Stage: "hazard", Reason: budget.ReasonScenarios}
					trunc.Stamp(obsCtx)
					return false
				}
			} else if prodStop.Load() {
				// The merge-side accountant reached the cap; its
				// deterministic truncation rank defines the cut.
				return false
			}
			if err := bud.Err("hazard"); err != nil {
				ex, _ := budget.Exhausted(err)
				trunc = &budget.Truncation{Stage: "hazard", Reason: ex.Reason}
				trunc.Stamp(obsCtx)
				return false
			}
			if len(chunk.scs) == 0 {
				chunk.baseSeq = seq
				chunk.scs = make([]epa.Scenario, 0, sweepChunkSize)
				chunk.masks = make([]byte, 0, sweepChunkSize*maskLen)
			}
			chunk.scs = append(chunk.scs, faults.ScenarioOf(muts, idx))
			chunk.masks = appendMask(chunk.masks, idx, maskLen)
			if len(chunk.scs) == sweepChunkSize {
				flush()
			}
			seq++
			return true
		})
		flush()
		produced <- producerOutcome{emitted: seq, trunc: trunc}
	}()

	// Workers: one EPA run (or cache lookup) plus requirement evaluation
	// per scenario, against the shared immutable engine. A chunk stops at
	// its first failure — everything after it would be discarded by the
	// merge anyway. A panic anywhere in the chunk (including injected
	// ones) is recovered into a chunk failure at the first unprocessed
	// rank, so one poisoned scenario degrades the sweep instead of
	// killing the process.
	var cacheHits, cacheMisses, retries atomic.Int64
	var executed, prunedCnt, orbitHits, reused atomic.Int64
	runChunk := func(jb sweepChunk, wCtx context.Context, keys *orbitScratch) (o sweepOutcome) {
		o = sweepOutcome{baseSeq: jb.baseSeq, n: len(jb.scs), badSeq: -1,
			srs: make([]ScenarioResult, 0, len(jb.scs)), masks: jb.masks}
		defer func() {
			if r := recover(); r != nil {
				o.badSeq = jb.baseSeq + len(o.srs)
				o.err = fmt.Errorf("hazard: sweep worker panic: %v", r)
			}
		}()
		if inj != nil {
			if err := inj.Fire(faultinject.SiteSweepChunk); err != nil {
				// Chunk-level faults (transient or not) surface as a
				// failure at the chunk head; a resume replays the chunk.
				o.badSeq = jb.baseSeq
				o.err = err
				return o
			}
		}
		for i, sc := range jb.scs {
			seq := jb.baseSeq + i
			if err := bud.Err("hazard"); err != nil {
				ex, _ := budget.Exhausted(err)
				o.badSeq = seq
				o.trunc = &budget.Truncation{Stage: "hazard", Reason: ex.Reason}
				o.trunc.Stamp(wCtx)
				return o
			}
			var res *epa.Result
			var key []byte
			mask := jb.masks[i*maskLen : (i+1)*maskLen]
			if pr != nil {
				key = pr.orbitKey(mask, keys)
			}
			// Delta re-assessment: a row the oracle can answer is carried
			// over from the cached parent analysis without touching the
			// engine. Reused rows feed the pruner and the persistent cache
			// like synthesized ones, so in-sweep dominance and future runs
			// both benefit.
			if cfg.Reuse != nil {
				if violated, known := cfg.Reuse(sc); known {
					reused.Add(1)
					if pr != nil {
						pr.record(mask, key, violated)
						if cfg.Cache != nil {
							cfg.Cache.Put(synthKey(mask), pr.encodeSynth(violated))
						}
					}
					o.srs = append(o.srs, synthesizeResult(seq, sc, mask, violated, muts, reqs))
					continue
				}
			}
			// Pruning: synthesize the row when the outcome is already
			// implied — by dominance, by a symmetry orbit sibling, or by a
			// synthesized-result record persisted by an earlier run.
			// Synthesized rows flow through the frontier and the merge
			// exactly like executed ones.
			if pr != nil {
				violated, v, learns := pr.lookup(mask, key)
				known := v != unknown
				switch v {
				case dominated:
					prunedCnt.Add(1)
				case orbitHit:
					orbitHits.Add(1)
				default:
					if cfg.Cache != nil {
						if b, ok := cfg.Cache.Get(synthKey(mask)); ok {
							if violated, known = pr.decodeSynth(b); known {
								cacheHits.Add(1)
								prunedCnt.Add(1)
								learns = true
							}
						}
					}
				}
				if known {
					if learns {
						pr.record(mask, key, violated)
					}
					if cfg.Cache != nil {
						cfg.Cache.Put(synthKey(mask), pr.encodeSynth(violated))
					}
					o.srs = append(o.srs, synthesizeResult(seq, sc, mask, violated, muts, reqs))
					continue
				}
			}
			if cfg.Cache != nil {
				if v, ok := cfg.Cache.Get(mask); ok {
					if r, err := eng.ResultFromStates(v); err == nil {
						res = r
						cacheHits.Add(1)
					}
					// A shape mismatch means the entry belongs to another
					// compilation; fall through and recompute.
				}
			}
			if res == nil {
				if cfg.Cache != nil {
					cacheMisses.Add(1)
				}
				attempts := 0
				err := faultinject.Retry(bud.Context(), sweepRetries, time.Millisecond, func() error {
					attempts++
					r, rerr := eng.RunBudget(sc, bud)
					if rerr == nil {
						res = r
					}
					return rerr
				})
				retries.Add(int64(attempts - 1))
				if err != nil {
					o.badSeq = seq
					if ex, ok := budget.Exhausted(err); ok {
						o.trunc = &budget.Truncation{Stage: "hazard", Reason: ex.Reason}
						o.trunc.Stamp(wCtx)
					} else {
						o.err = err
					}
					return o
				}
				if cfg.Cache != nil {
					cfg.Cache.Put(mask, res.StateVector())
				}
			}
			executed.Add(1)
			sr := scoreResult(seq, sc, mask, res, muts, reqs)
			if pr != nil {
				pr.record(mask, key, sr.Violated)
			}
			o.srs = append(o.srs, sr)
		}
		return o
	}

	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var wSpan *obs.Span
			wCtx := obsCtx
			if sweepSpan != nil {
				wSpan = sweepSpan.StartChild(fmt.Sprintf("worker#%d", w))
				wCtx = obs.ContextWithSpan(obsCtx, wSpan)
			}
			defer wSpan.End()
			var keys orbitScratch
			for jb := range jobs {
				var cSpan *obs.Span
				if wSpan != nil {
					cSpan = wSpan.StartChild(fmt.Sprintf("chunk[%d+%d]", jb.baseSeq, len(jb.scs)))
				}
				chunkStart := time.Now()
				o := runChunk(jb, wCtx, &keys)
				cChunks.Inc()
				hChunk.Observe(time.Since(chunkStart).Microseconds())
				cSpan.End()
				outcomes <- o
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	// Merge: collect chunk outcomes, advancing the contiguous completion
	// frontier online. Every checkpoint interval the result cache is
	// flushed and THEN the frontier persisted — write-ahead ordering, so
	// a crash between the two leaves a frontier that under-promises.
	chunks := map[int]sweepOutcome{}
	frontier := shardLo
	lastSaved := -1
	saveFrontier := func(complete bool) {
		// The frontier persisted never exceeds the accountant's
		// truncation rank: rows the overshooting pipeline completed above
		// the cap are cut from this report, so promising them to a resume
		// would let the resumed run report rows this run did not.
		front := frontier
		if acct != nil && acct.cut < front {
			front = acct.cut
		}
		if cfg.Checkpoint == nil || front == lastSaved && !complete {
			return
		}
		if err := cfg.Cache.Flush(); err != nil {
			// An unflushed cache makes the frontier a lie; keep the old
			// checkpoint rather than persisting an over-promise.
			return
		}
		st := ckptState{
			Version:    ckptVersion,
			EngineHash: fmt.Sprintf("%016x", engHash),
			MutsHash:   fmt.Sprintf("%016x", mutsHash),
			ReqsHash:   fmt.Sprintf("%016x", reqsHash),
			MaxCard:    maxCard,
			Frontier:   front,
			Ranges:     frontierRanges(len(muts), maxCard, front),
			Complete:   complete,
		}
		if err := cfg.Checkpoint.save(st); err == nil {
			lastSaved = front
		}
	}
	advance := func() {
		for {
			o, ok := chunks[frontier]
			if !ok {
				return
			}
			// The accountant replays the contiguous row stream exactly
			// once, here, in rank order — the only place rank order
			// exists during a parallel sweep.
			if acct != nil {
				for i, sr := range o.srs {
					acct.row(o.baseSeq+i, sr, o.masks[i*maskLen:(i+1)*maskLen])
				}
			}
			frontier += len(o.srs)
			if len(o.srs) < o.n {
				return // partial chunk: the gap never closes this run
			}
		}
	}

	firstBad := math.MaxInt
	var badTrunc *budget.Truncation
	var badErr error
	every := 0
	if cfg.Checkpoint != nil {
		every = cfg.Checkpoint.every
	}
	for o := range outcomes {
		chunks[o.baseSeq] = o
		if o.badSeq >= 0 && o.badSeq < firstBad {
			firstBad = o.badSeq
			badTrunc, badErr = o.trunc, o.err
		}
		advance()
		if every > 0 && frontier-max(lastSaved, shardLo) >= every {
			saveFrontier(false)
		}
	}
	prod := <-produced

	cut := prod.emitted
	trunc := prod.trunc
	if acct != nil && acct.cut < cut {
		cut = acct.cut
		trunc = &budget.Truncation{Stage: "hazard", Reason: budget.ReasonScenarios}
		trunc.Stamp(obsCtx)
	}
	if firstBad < cut {
		cut = firstBad
		trunc = badTrunc
	}
	if frontier > cut {
		frontier = cut
	}
	// Persist the final frontier before any return — including the hard
	// error below: the process is about to report failure, and the whole
	// point of the checkpoint is surviving exactly that.
	complete := trunc == nil && badErr == nil && firstBad == math.MaxInt
	saveFrontier(complete)
	if firstBad < prod.emitted && badErr != nil {
		// Earliest event is a hard error: fail on that scenario, as at
		// every pool width. The checkpoint above makes the failure
		// resumable.
		return nil, badErr
	}
	out := &Analysis{Requirements: reqs, Scenarios: make([]ScenarioResult, 0, max(cut-shardLo, 0))}
	if resumeFrom > shardLo {
		out.Resume = &ResumeInfo{FromRank: resumeFrom}
	}
merge:
	for seq := shardLo; seq < cut; {
		o, ok := chunks[seq]
		if !ok {
			// Defensive: a hole below the cut means a worker died
			// without reporting; treat the prefix up to it as the
			// result rather than mislabeling later scenarios.
			break
		}
		for _, sr := range o.srs {
			if seq >= cut {
				break merge
			}
			out.Scenarios = append(out.Scenarios, sr)
			seq++
		}
		if len(o.srs) == 0 {
			break
		}
	}
	if trunc != nil {
		out.Truncation = trunc
		if sharded {
			// A shard covers an arbitrary rank slice, so the
			// completed-cardinality policy does not apply; the contiguous
			// completed prefix of the range is the answer.
			out.Truncation.Detail = fmt.Sprintf("shard %d/%d analyzed %d scenarios of range [%d,%d)",
				cfg.ShardIndex, cfg.ShardCount, len(out.Scenarios), shardLo, shardHi)
		} else {
			out.truncateToCompletedCardinality(muts, maxCard)
		}
		if resumeFrom > shardLo {
			out.Truncation.Detail += fmt.Sprintf("; resumed from checkpoint at rank %d", resumeFrom)
		}
	}
	restored := 0
	if resumeFrom > shardLo {
		restored = resumeFrom
	}
	shardTag := ""
	if sharded {
		shardTag = fmt.Sprintf("%d/%d", cfg.ShardIndex, cfg.ShardCount)
	}
	orbitClasses := 0
	if pr != nil {
		orbitClasses = pr.numClasses()
	}
	out.Sweep = &SweepStats{
		Workers:      parallelism,
		Scenarios:    len(out.Scenarios),
		Duration:     time.Since(start),
		CacheHits:    cacheHits.Load(),
		CacheMisses:  cacheMisses.Load(),
		Retries:      retries.Load(),
		Restored:     restored,
		Executed:     executed.Load(),
		Pruned:       prunedCnt.Load(),
		OrbitHits:    orbitHits.Load(),
		OrbitClasses: orbitClasses,
		Reused:       reused.Load(),
		Shard:        shardTag,
	}
	publishSweep(reg, out.Sweep, prod.emitted-shardLo)
	return out, nil
}

// capAccountant decides which rows the MaxScenarios cap charges when
// synthesized rows are possible. It replays the merged row stream in
// contiguous rank order — the merge guarantees that — through a shadow
// pruner that starts empty, i.e. the deterministic accounting of the
// equivalent sequential pruned sweep. A row is exempt (free) when it is
// below the resume frontier, answered by the delta-reuse oracle, or
// implied by earlier rows via shadow dominance or a shadow orbit
// sibling; every other row charges one unit. The first charged row past
// the limit fixes cut — the exclusive truncation rank — and raises the
// producer stop flag. Because its inputs (row content, rank order, the
// oracle) are deterministic, the cut is identical across parallelism,
// cache warmth, and worker-pruner seeding.
type capAccountant struct {
	limit      int
	resumeFrom int
	reuse      func(sc epa.Scenario) ([]string, bool)
	shadow     *pruner // nil when pruning is off (reuse-only accounting)
	keys       orbitScratch
	charged    int
	cut        int // math.MaxInt until the cap is reached
	stop       *atomic.Bool
}

func (a *capAccountant) row(seq int, sr ScenarioResult, mask []byte) {
	if a.cut != math.MaxInt {
		return
	}
	var key []byte
	if a.shadow != nil {
		key = a.shadow.orbitKey(mask, &a.keys)
	}
	exempt := seq < a.resumeFrom
	if !exempt && a.reuse != nil {
		_, exempt = a.reuse(sr.Scenario)
	}
	if !exempt && a.shadow != nil {
		_, v, _ := a.shadow.lookup(mask, key)
		exempt = v != unknown
	}
	if !exempt {
		if a.charged >= a.limit {
			a.cut = seq
			a.stop.Store(true)
			return
		}
		a.charged++
	}
	if a.shadow != nil {
		a.shadow.record(mask, key, sr.Violated)
	}
}
