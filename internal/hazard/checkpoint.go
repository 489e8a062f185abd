package hazard

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
)

// Sweep checkpointing persists the frontier of a running scenario sweep
// — the contiguous prefix of completed stream ranks — so an interrupted
// or budget-truncated assessment resumes instead of starting over.
//
// Resume does NOT skip enumeration: the sweep runs again from rank 0 in
// memory, which is what makes the resumed report byte-identical to an
// uninterrupted run — every scenario is scored through the same
// deterministic code path. The frontier's role is accounting: scenarios
// below it do not count against the MaxScenarios budget (they were
// already paid for), so a budget-bounded sweep makes forward progress
// on every resume.
//
// Durability: the checkpoint file is published atomically (temp +
// fsync + rename + directory fsync, see atomicWrite), carries a CRC
// over its payload, and a corrupt file is quarantined — the sweep then
// starts from scratch rather than trusting a damaged frontier.

const (
	// ckptMagic heads the checkpoint file.
	ckptMagic = "CPSCKPT1\n"
	// ckptFile is the checkpoint file name inside the checkpoint dir.
	ckptFile = "sweep.ckpt"
	// ckptVersion is bumped on any incompatible state change.
	ckptVersion = 1
	// DefaultCheckpointEvery is the frontier-advance granularity between
	// checkpoint writes.
	DefaultCheckpointEvery = 1024
)

// ckptState is the durable frontier record.
type ckptState struct {
	Version    int    `json:"version"`
	EngineHash string `json:"engineHash"`
	MutsHash   string `json:"mutsHash"`
	ReqsHash   string `json:"reqsHash"`
	MaxCard    int    `json:"maxCard"`
	// Frontier is the contiguous count of completed stream ranks: every
	// scenario with rank < Frontier was analyzed by an earlier run.
	Frontier int `json:"frontier"`
	// Ranges breaks the frontier down per cardinality — redundant with
	// Frontier but keeps the file self-describing for humans and tools.
	Ranges []CardRange `json:"ranges,omitempty"`
	// Complete marks a sweep that finished its whole space.
	Complete bool `json:"complete"`
}

// CardRange describes the completed slice of one cardinality level.
type CardRange struct {
	Card int `json:"card"`
	// Upto counts completed combinatorial ranks at this cardinality
	// (lexicographic order, matching the enumeration stream).
	Upto int `json:"upto"`
	// Total is C(n, Card) — the full extent of the level.
	Total int `json:"total"`
}

// Checkpoint manages the durable frontier of one sweep directory.
type Checkpoint struct {
	dir   string
	every int
	inj   *faultinject.Injector

	loaded *ckptState // state found on disk at Open (nil = fresh)
}

// OpenCheckpoint loads (or prepares) the checkpoint in dir. every is
// the number of newly completed scenarios between persisted frontier
// updates (0 = DefaultCheckpointEvery). A corrupt checkpoint file is
// quarantined — moved to <file>.quarantined — and the sweep starts
// fresh; only an unusable directory is an error.
func OpenCheckpoint(dir string, every int) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("hazard: checkpoint: %w", err)
	}
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	ck := &Checkpoint{dir: dir, every: every}
	// Janitor: a crash mid-write leaves unpublished temp files behind.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	path := filepath.Join(dir, ckptFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return ck, nil
	}
	if err != nil {
		return nil, fmt.Errorf("hazard: checkpoint: %w", err)
	}
	st, derr := decodeCheckpoint(data)
	if derr != nil {
		// Quarantine, never trust or delete: resume from scratch costs
		// only recomputation, a bad frontier costs correctness.
		_ = os.Rename(path, path+".quarantined")
		return ck, nil
	}
	ck.loaded = &st
	return ck, nil
}

// SetInjector arms the checkpoint-write chaos site.
func (ck *Checkpoint) SetInjector(inj *faultinject.Injector) {
	if ck != nil {
		ck.inj = inj
	}
}

// Resume validates the loaded state against the sweep about to run and
// returns the frontier rank to resume from (0 = start fresh). A hash or
// shape mismatch — different model, candidate set, requirements, or
// cardinality bound — silently invalidates the checkpoint: resuming
// someone else's frontier would mislabel scenarios.
func (ck *Checkpoint) Resume(engHash, mutsHash, reqsHash uint64, maxCard int) int {
	if ck == nil || ck.loaded == nil {
		return 0
	}
	st := ck.loaded
	if st.Version != ckptVersion ||
		st.EngineHash != fmt.Sprintf("%016x", engHash) ||
		st.MutsHash != fmt.Sprintf("%016x", mutsHash) ||
		st.ReqsHash != fmt.Sprintf("%016x", reqsHash) ||
		st.MaxCard != maxCard {
		return 0
	}
	return st.Frontier
}

// save persists the frontier atomically. Failures are reported but the
// sweep treats them as degradation, not fatality — a missing checkpoint
// only costs future resume work.
func (ck *Checkpoint) save(st ckptState) error {
	if ck == nil {
		return nil
	}
	path := filepath.Join(ck.dir, ckptFile)
	data := encodeCheckpoint(st)
	if ck.inj != nil {
		if err := ck.inj.Fire(faultinject.SiteCheckpointWrite); err != nil {
			if faultinject.IsTorn(err) {
				// A crashed non-atomic writer: half a checkpoint at the
				// final path. The next Open must quarantine it.
				_ = os.WriteFile(path, data[:len(data)/2], 0o644)
			}
			return fmt.Errorf("hazard: checkpoint: %w", err)
		}
	}
	if err := atomicWrite(path, data); err != nil {
		return fmt.Errorf("hazard: checkpoint: %w", err)
	}
	return nil
}

// encodeCheckpoint renders the durable form:
//
//	CPSCKPT1\n
//	crc:<8 hex over payload>\n
//	<payload JSON>
func encodeCheckpoint(st ckptState) []byte {
	payload, err := json.Marshal(st)
	if err != nil {
		// ckptState marshals by construction; a failure is a programming
		// error worth crashing loudly on.
		panic(fmt.Sprintf("hazard: checkpoint marshal: %v", err))
	}
	var sb strings.Builder
	sb.WriteString(ckptMagic)
	fmt.Fprintf(&sb, "crc:%08x\n", crcIEEE(payload))
	sb.Write(payload)
	return []byte(sb.String())
}

// decodeCheckpoint parses and verifies a checkpoint file. It never
// panics on arbitrary input (fuzzed by FuzzCheckpoint); any deviation —
// bad magic, bad CRC line, checksum mismatch, malformed JSON — is an
// error the caller turns into quarantine.
func decodeCheckpoint(data []byte) (ckptState, error) {
	var st ckptState
	s := string(data)
	if !strings.HasPrefix(s, ckptMagic) {
		return st, fmt.Errorf("hazard: checkpoint: bad magic")
	}
	s = s[len(ckptMagic):]
	nl := strings.IndexByte(s, '\n')
	if nl < 0 {
		return st, fmt.Errorf("hazard: checkpoint: truncated before payload")
	}
	crcLine, payload := s[:nl], s[nl+1:]
	var want uint32
	if _, err := fmt.Sscanf(crcLine, "crc:%08x", &want); err != nil {
		return st, fmt.Errorf("hazard: checkpoint: bad crc line %q", crcLine)
	}
	if got := crcIEEE([]byte(payload)); got != want {
		return st, fmt.Errorf("hazard: checkpoint: checksum mismatch %08x != %08x", got, want)
	}
	dec := json.NewDecoder(strings.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return st, fmt.Errorf("hazard: checkpoint: %w", err)
	}
	if st.Frontier < 0 {
		return st, fmt.Errorf("hazard: checkpoint: negative frontier")
	}
	return st, nil
}

// frontierRanges decomposes a contiguous frontier rank into the
// per-cardinality completed ranges recorded in the checkpoint file.
func frontierRanges(n, maxCard, frontier int) []CardRange {
	if maxCard < 0 || maxCard > n {
		maxCard = n
	}
	var out []CardRange
	left := frontier
	for c := 0; c <= maxCard && left > 0; c++ {
		total := binomialSat(n, c)
		upto := left
		if upto > total {
			upto = total
		}
		out = append(out, CardRange{Card: c, Upto: upto, Total: total})
		left -= upto
	}
	return out
}

// hashMuts fingerprints the candidate mutation set (order-sensitive; the
// generator sorts deterministically).
func hashMuts(muts []faults.Mutation) uint64 {
	h := fnv.New64a()
	for _, m := range muts {
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s\x00", m.Component, m.Fault, m.Likelihood, strings.Join(m.Sources, ","))
	}
	return h.Sum64()
}

// hashReqs fingerprints the requirement set, including the violation
// conditions via their canonical rendering.
func hashReqs(reqs []Requirement) uint64 {
	h := fnv.New64a()
	for _, r := range reqs {
		cond := ""
		if r.Condition != nil {
			cond = r.Condition.String()
		}
		fmt.Fprintf(h, "%s\x00%d\x00%s\x00", r.ID, r.Severity, cond)
	}
	return h.Sum64()
}

func crcIEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// atomicWrite publishes data at path via the temp-file + fsync + rename
// protocol. The deferred remove is the janitor: on any failure (or a
// panic unwinding through) the temp file disappears; after a successful
// rename it is a no-op.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// Persist the rename itself: fsync the directory. Best-effort — some
	// filesystems refuse directory fsync; the rename is still atomic.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
