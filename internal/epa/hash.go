package epa

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// Hash returns a stable FNV-1a fingerprint of the compiled engine: the
// interned port table, connection fan-out, transfer rules, fault seeds,
// and the declared activation set. Two engines built from semantically
// identical model + behaviour inputs hash identically, so the hash keys
// the sweep checkpoint — a model or behaviour edit changes the hash and
// quietly invalidates a saved frontier.
func (e *Engine) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	str("ports")
	for _, p := range e.ports {
		str(p.Component)
		str(p.Port)
	}
	str("connections")
	for from, tos := range e.outgoing {
		num(int64(from))
		for _, to := range tos {
			num(int64(to))
		}
	}
	str("transfers")
	for from, trs := range e.transfers {
		num(int64(from))
		for _, tr := range trs {
			num(int64(tr.to))
			num(int64(tr.match))
			num(int64(tr.emit))
			str(tr.component)
			str(tr.whenFault)
			str(tr.unlessFault)
		}
	}
	str("seeds")
	acts := make([]Activation, 0, len(e.seeds))
	for act := range e.seeds {
		acts = append(acts, act)
	}
	sortActivations(acts)
	for _, act := range acts {
		str(act.Component)
		str(act.Fault)
		for _, s := range e.seeds[act] {
			num(int64(s.port))
			num(int64(s.emit))
		}
	}
	str("valid")
	acts = acts[:0]
	for act := range e.valid {
		acts = append(acts, act)
	}
	sortActivations(acts)
	for _, act := range acts {
		str(act.Component)
		str(act.Fault)
	}
	return h.Sum64()
}

func sortActivations(acts []Activation) {
	sort.Slice(acts, func(i, j int) bool {
		if acts[i].Component != acts[j].Component {
			return acts[i].Component < acts[j].Component
		}
		return acts[i].Fault < acts[j].Fault
	})
}
