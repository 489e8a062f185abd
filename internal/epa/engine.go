package epa

import (
	"fmt"
	"sort"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/sysmodel"
)

// PortKey addresses one port of one component instance.
type PortKey struct {
	Component string
	Port      string
}

// String implements fmt.Stringer.
func (k PortKey) String() string { return k.Component + "." + k.Port }

// Cause explains how an error mode arrived at a port: through a fault
// activation, a connection from another port, or an intra-component
// transfer.
type Cause struct {
	Kind string // "fault", "connection", "transfer"
	// Fault is set for fault causes.
	Fault Activation
	// From is set for connection and transfer causes: the upstream port
	// and the mode that triggered the rule.
	From     PortKey
	FromMode ErrMode
}

// portID is the dense integer index of a port in the engine's sorted
// port table. All hot-path state is portID-indexed so a propagation run
// touches slices, not string-keyed maps.
type portID = int32

// compiledTransfer is a transfer rule resolved against the port table:
// source port implied by its bucket in Engine.transfers, target port as
// a dense ID, guards kept by name (they are scenario-dependent).
type compiledTransfer struct {
	to          portID
	match, emit ErrState
	component   string
	whenFault   string
	unlessFault string
}

// seedEffect is a fault effect resolved to a concrete port.
type seedEffect struct {
	port portID
	emit ErrState
}

// compSpan is one component's contiguous range in the sorted port table.
type compSpan struct {
	component  string
	start, end portID
}

// Result is the outcome of one EPA run. It borrows the engine's
// immutable port table; the per-run state is a dense slice indexed by
// portID.
type Result struct {
	eng    *Engine
	states []ErrState
	causes map[causeKey]Cause
}

type causeKey struct {
	port portID
	mode ErrMode
}

// PortState returns the error state of a port.
func (r *Result) PortState(component, port string) ErrState {
	id, ok := r.eng.portIndex[PortKey{Component: component, Port: port}]
	if !ok {
		return OK
	}
	return r.states[id]
}

// ComponentState returns the union of the component's port states. The
// port table is sorted by component, so only the component's own span is
// scanned — not every port of the model.
func (r *Result) ComponentState(component string) ErrState {
	span, ok := r.eng.compRange[component]
	if !ok {
		return OK
	}
	var s ErrState
	for _, st := range r.states[span.start:span.end] {
		s = s.Union(st)
	}
	return s
}

// Affected lists components with a non-OK state, sorted.
func (r *Result) Affected() []string {
	var out []string
	for _, span := range r.eng.compSpans {
		for _, st := range r.states[span.start:span.end] {
			if !st.IsOK() {
				out = append(out, span.component)
				break
			}
		}
	}
	return out
}

// PathStep is one hop of an error-propagation path.
type PathStep struct {
	Port  PortKey
	Mode  ErrMode
	Cause Cause
}

// Path reconstructs the propagation path that brought mode to the port:
// from the originating fault activation down to the queried port (the
// paper's "components' error propagation path", §II-C). Returns nil when
// the mode is absent.
func (r *Result) Path(component, port string, mode ErrMode) []PathStep {
	id, ok := r.eng.portIndex[PortKey{Component: component, Port: port}]
	if !ok {
		return nil
	}
	key := causeKey{port: id, mode: mode}
	var rev []PathStep
	for guard := 0; guard < 4*len(r.states)+4; guard++ {
		cause, ok := r.causes[key]
		if !ok {
			return nil
		}
		rev = append(rev, PathStep{Port: r.eng.ports[key.port], Mode: key.mode, Cause: cause})
		if cause.Kind == "fault" {
			// Reached the origin.
			out := make([]PathStep, len(rev))
			for i := range rev {
				out[i] = rev[len(rev)-1-i]
			}
			return out
		}
		from, ok := r.eng.portIndex[cause.From]
		if !ok {
			return nil
		}
		key = causeKey{port: from, mode: cause.FromMode}
	}
	return nil // defensive: cyclic provenance cannot happen (first-cause wins)
}

// Engine runs EPA over a flattened model. NewEngine compiles the model
// and behaviour library once into dense integer-indexed tables (port
// interning, per-port connection fan-out, per-port transfer buckets,
// per-activation fault seeds); RunBudget then only walks slices.
//
// An Engine is immutable after NewEngine and therefore safe for
// concurrent use: any number of goroutines may call RunBudget on
// the same Engine simultaneously (each run owns its Result). This is
// what makes the parallel scenario sweep in internal/hazard possible.
type Engine struct {
	model *sysmodel.Model
	lib   *BehaviorLibrary

	ports     []PortKey
	behaviors map[string]*TypeBehavior // component ID -> behaviour

	// Compiled tables, all read-only after NewEngine.
	portIndex map[PortKey]portID
	outgoing  [][]portID           // connection fan-out per source port
	transfers [][]compiledTransfer // transfer rules bucketed by From port
	seeds     map[Activation][]seedEffect
	valid     map[Activation]bool // every declared (component, fault) pair
	compSpans []compSpan          // sorted by component
	compRange map[string]compSpan
}

// NewEngine prepares an engine; the model must be flat (no composites —
// call RefineAll first for hierarchical models) and valid against the
// library's types.
func NewEngine(model *sysmodel.Model, lib *BehaviorLibrary) (*Engine, error) {
	if comps := model.Composites(); len(comps) > 0 {
		return nil, fmt.Errorf("epa: model has unresolved composites %v (refine first)", comps)
	}
	if err := model.Validate(lib.Types()); err != nil {
		return nil, fmt.Errorf("epa: %w", err)
	}
	e := &Engine{
		model:     model,
		lib:       lib,
		behaviors: make(map[string]*TypeBehavior, len(model.Components)),
		seeds:     map[Activation][]seedEffect{},
		valid:     map[Activation]bool{},
		compRange: map[string]compSpan{},
	}
	for _, c := range model.Components {
		b, err := lib.For(c.Type)
		if err != nil {
			return nil, err
		}
		e.behaviors[c.ID] = b
		ct, _ := lib.Types().Get(c.Type)
		for _, p := range ct.Ports {
			e.ports = append(e.ports, PortKey{Component: c.ID, Port: p.Name})
		}
	}
	sort.Slice(e.ports, func(i, j int) bool {
		if e.ports[i].Component != e.ports[j].Component {
			return e.ports[i].Component < e.ports[j].Component
		}
		return e.ports[i].Port < e.ports[j].Port
	})
	e.portIndex = make(map[PortKey]portID, len(e.ports))
	for i, p := range e.ports {
		e.portIndex[p] = portID(i)
	}
	// Component spans over the sorted port table.
	for i := 0; i < len(e.ports); {
		j := i
		for j < len(e.ports) && e.ports[j].Component == e.ports[i].Component {
			j++
		}
		span := compSpan{component: e.ports[i].Component, start: portID(i), end: portID(j)}
		e.compSpans = append(e.compSpans, span)
		e.compRange[span.component] = span
		i = j
	}
	// Connection fan-out (quantity flows propagate both ways).
	e.outgoing = make([][]portID, len(e.ports))
	for _, conn := range model.Connections {
		from := e.portIndex[PortKey{Component: conn.From.Component, Port: conn.From.Port}]
		to := e.portIndex[PortKey{Component: conn.To.Component, Port: conn.To.Port}]
		e.outgoing[from] = append(e.outgoing[from], to)
		if conn.Flow == sysmodel.QuantityFlow {
			e.outgoing[to] = append(e.outgoing[to], from)
		}
	}
	// Transfer buckets and fault seeds.
	e.transfers = make([][]compiledTransfer, len(e.ports))
	for _, c := range model.Components {
		b := e.behaviors[c.ID]
		ct, _ := lib.Types().Get(c.Type)
		for _, tr := range b.Transfers {
			from := e.portIndex[PortKey{Component: c.ID, Port: tr.From}]
			e.transfers[from] = append(e.transfers[from], compiledTransfer{
				to:          e.portIndex[PortKey{Component: c.ID, Port: tr.To}],
				match:       tr.Match,
				emit:        tr.Emit,
				component:   c.ID,
				whenFault:   tr.WhenFault,
				unlessFault: tr.UnlessFault,
			})
		}
		for _, eff := range b.Effects {
			act := Activation{Component: c.ID, Fault: eff.Fault}
			for _, p := range e.effectPorts(c, ct, eff) {
				e.seeds[act] = append(e.seeds[act], seedEffect{port: e.portIndex[p], emit: eff.Emit})
			}
		}
		for _, fm := range ct.FaultModes {
			e.valid[Activation{Component: c.ID, Fault: fm.Name}] = true
		}
	}
	return e, nil
}

// Model returns the analyzed model.
func (e *Engine) Model() *sysmodel.Model { return e.model }

// budgetPollInterval is how many worklist pops pass between budget
// checks. Polling touches a context (and under -race, a mutex), so the
// hot loop amortizes it; 64 pops keep cancellation latency well under a
// millisecond on any realistic model.
const budgetPollInterval = 64

// RunBudget computes the propagation fixpoint for a scenario. Unknown
// activations (component or fault not in the model/type) are an error —
// scenario construction bugs must not silently under-approximate.
//
// The budget (nil = unlimited) is polled on entry and every
// budgetPollInterval worklist steps; exhaustion aborts with an
// *budget.ExhaustedError (stage "epa"). A partial fixpoint would
// under-approximate the propagation, so there is no partial-result mode
// at this granularity — callers degrade at the scenario level instead.
//
// RunBudget is safe for concurrent use on a shared Engine.
//
// The fixpoint is a worklist algorithm: only ports whose state changed
// are revisited, so a run is O(edges touched), not O(iterations × model
// size) like a full-rescan fixpoint.
func (e *Engine) RunBudget(scenario Scenario, bud *budget.Budget) (*Result, error) {
	if err := bud.Err("epa"); err != nil {
		return nil, err
	}
	// Chaos hook: one nil check per run when injection is off. Transient
	// injected failures here exercise the sweep's retry-with-backoff.
	if inj := bud.Injector(); inj != nil {
		if err := inj.Fire(faultinject.SiteEPARun); err != nil {
			return nil, err
		}
	}
	res := &Result{
		eng:    e,
		states: make([]ErrState, len(e.ports)),
		causes: make(map[causeKey]Cause, 4*len(scenario)+4),
	}
	queue := make([]portID, 0, 2*len(scenario)+4)
	queued := make([]bool, len(e.ports))
	push := func(p portID) {
		if !queued[p] {
			queued[p] = true
			queue = append(queue, p)
		}
	}
	// Seed: fault effects.
	for _, act := range scenario {
		if !e.valid[act] {
			comp, ok := e.model.Component(act.Component)
			if !ok {
				return nil, fmt.Errorf("epa: scenario activates unknown component %q", act.Component)
			}
			return nil, fmt.Errorf("epa: scenario activates unknown fault %q on %q (type %q)",
				act.Fault, act.Component, comp.Type)
		}
		for _, s := range e.seeds[act] {
			if res.add(s.port, s.emit, Cause{Kind: "fault", Fault: act}) {
				push(s.port)
			}
		}
	}
	// Worklist fixpoint: pop a changed port, propagate along its outgoing
	// connections and transfer rules, enqueue targets that changed. The
	// state space is finite and grows monotonically, so this terminates
	// after at most 4 state changes per port.
	for steps := 0; len(queue) > 0; steps++ {
		if steps%budgetPollInterval == 0 {
			if err := bud.Err("epa"); err != nil {
				return nil, err
			}
		}
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queued[p] = false
		st := res.states[p]
		if st.IsOK() {
			continue
		}
		from := e.ports[p]
		// Connections.
		for _, to := range e.outgoing[p] {
			for _, m := range AllModes {
				if !st.Has(m) {
					continue
				}
				if res.add(to, StateOf(m), Cause{Kind: "connection", From: from, FromMode: m}) {
					push(to)
				}
			}
		}
		// Transfers.
		for i := range e.transfers[p] {
			tr := &e.transfers[p][i]
			if tr.whenFault != "" && !scenario.Has(tr.component, tr.whenFault) {
				continue
			}
			if tr.unlessFault != "" && scenario.Has(tr.component, tr.unlessFault) {
				continue
			}
			if !st.Intersects(tr.match) {
				continue
			}
			trigger := firstCommonMode(st, tr.match)
			if res.add(tr.to, tr.emit, Cause{Kind: "transfer", From: from, FromMode: trigger}) {
				push(tr.to)
			}
		}
	}
	return res, nil
}

func firstCommonMode(a, b ErrState) ErrMode {
	for _, m := range AllModes {
		if a.Has(m) && b.Has(m) {
			return m
		}
	}
	return 0
}

// effectPorts resolves the ports an effect touches ("" = all out/inout).
func (e *Engine) effectPorts(comp *sysmodel.Component, ct *sysmodel.ComponentType, eff FaultEffect) []PortKey {
	if eff.Port != "" {
		return []PortKey{{Component: comp.ID, Port: eff.Port}}
	}
	var out []PortKey
	for _, p := range ct.Ports {
		if p.Dir == sysmodel.Out || p.Dir == sysmodel.InOut {
			out = append(out, PortKey{Component: comp.ID, Port: p.Name})
		}
	}
	return out
}

// add merges the state into the port, recording first causes per new mode.
// It reports whether anything changed.
func (r *Result) add(p portID, st ErrState, cause Cause) bool {
	old := r.states[p]
	merged := old.Union(st)
	if merged == old {
		return false
	}
	r.states[p] = merged
	for _, m := range AllModes {
		if !st.Has(m) || old.Has(m) {
			continue
		}
		key := causeKey{port: p, mode: m}
		if _, dup := r.causes[key]; !dup {
			r.causes[key] = cause
		}
	}
	return true
}
