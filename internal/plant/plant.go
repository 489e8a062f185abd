// Package plant implements a discrete-time simulator of the paper's §VII
// water-tank system (inspired by the Tennessee Eastman Process benchmark):
// a tank with input/output valve actuators and their controllers, a water
// level sensor, a hysteresis tank controller, an HMI alert channel, and an
// engineering workstation that can be compromised to reconfigure the
// actuators. It is the concrete oracle the CEGAR loop validates abstract
// counterexamples against, and the ground truth for the EPA
// over-approximation property ("no actual hazardous attack is
// overlooked").
package plant

import (
	"fmt"
	"math"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/temporal"
)

// Component names shared with the water-tank system model.
const (
	CompTank        = "tank"
	CompLevelSensor = "level_sensor"
	CompController  = "tank_controller"
	CompInValveCtl  = "in_valve_ctrl"
	CompOutValveCtl = "out_valve_ctrl"
	CompInValve     = "input_valve"
	CompOutValve    = "output_valve"
	CompHMI         = "hmi"
	CompEWS         = "ews"
)

// Fault mode names shared with the system model (paper §VII: F1..F4).
const (
	FaultStuckOpen   = "stuck_at_open"   // F1 on input valve
	FaultStuckClosed = "stuck_at_closed" // F2 on output valve
	FaultNoSignal    = "no_signal"       // F3 on HMI / sensor
	FaultCompromised = "compromised"     // F4 on engineering workstation
	FaultBadCommand  = "bad_command"     // attacker reconfigures a valve controller
)

// Config parameterizes the physics and control.
type Config struct {
	// Area is the tank cross-section (m^2); Capacity the level at which
	// water spills (m).
	Area     float64
	Capacity float64
	// InFlowMax / OutFlowMax are full-open volumetric flows (m^3/s).
	InFlowMax  float64
	OutFlowMax float64
	// LowMark / HighMark are the hysteresis thresholds of the controller.
	LowMark  float64
	HighMark float64
	// AlertMark is the level at which the controller raises an operator
	// alert through the HMI.
	AlertMark float64
	// DT is the simulation step (s); Steps the horizon.
	DT    float64
	Steps int
	// InitialLevel is the starting water level.
	InitialLevel float64
}

// DefaultConfig returns the case-study parameterization: a 1 m tall tank
// controlled between 0.3 and 0.7 m, alert at 0.9 m, inflow able to
// overfill the tank if unopposed.
func DefaultConfig() Config {
	return Config{
		Area:         1.0,
		Capacity:     1.0,
		InFlowMax:    0.05,
		OutFlowMax:   0.06,
		LowMark:      0.3,
		HighMark:     0.7,
		AlertMark:    0.9,
		DT:           1.0,
		Steps:        200,
		InitialLevel: 0.5,
	}
}

// Validate rejects nonphysical configurations.
func (c Config) Validate() error {
	switch {
	case c.Area <= 0, c.Capacity <= 0, c.DT <= 0, c.Steps <= 0:
		return fmt.Errorf("plant: non-positive physical parameter: %+v", c)
	case c.InFlowMax < 0 || c.OutFlowMax < 0:
		return fmt.Errorf("plant: negative flow bound")
	case !(c.LowMark < c.HighMark && c.HighMark < c.AlertMark && c.AlertMark <= c.Capacity):
		return fmt.Errorf("plant: marks must satisfy low < high < alert <= capacity")
	case c.InitialLevel < 0 || c.InitialLevel > c.Capacity:
		return fmt.Errorf("plant: initial level outside tank")
	}
	return nil
}

// Injection activates a fault from a given step onward (0 = from start).
type Injection struct {
	Component string
	Fault     string
	AtStep    int
}

// Step is one recorded simulation step.
type Step struct {
	T        int
	Level    float64
	InFlow   float64
	OutFlow  float64
	Overflow bool // level at capacity with net inflow spilling
	Alerted  bool // operator saw an alert this step
}

// Trace is a recorded simulation run.
type Trace struct {
	Steps  []Step
	Config Config
}

// Levels extracts the level waveform.
func (tr *Trace) Levels() []float64 {
	out := make([]float64, len(tr.Steps))
	for i, s := range tr.Steps {
		out[i] = s.Level
	}
	return out
}

// Overflowed reports whether the tank ever spilled (R1 violation ground
// truth).
func (tr *Trace) Overflowed() bool {
	for _, s := range tr.Steps {
		if s.Overflow {
			return true
		}
	}
	return false
}

// AlertedAfterOverflow reports whether an operator alert was delivered at
// or after the first overflow (R2 ground truth: an alert must be sent in
// case of overflow).
func (tr *Trace) AlertedAfterOverflow() bool {
	seen := false
	for _, s := range tr.Steps {
		if s.Overflow {
			seen = true
		}
		if seen && s.Alerted {
			return true
		}
	}
	return false
}

// LevelSpace is the qualitative quantity space of the tank level used to
// abstract traces for the reasoner (paper §II-B).
func LevelSpace(cfg Config) *qual.QuantitySpace {
	return qual.MustQuantitySpace("level",
		[]float64{cfg.LowMark / 3, cfg.LowMark, cfg.HighMark, cfg.AlertMark},
		[]string{"empty", "low", "normal", "high", "overflow"})
}

// PropTrace abstracts the run into an LTLf trace over the propositions
// state(tank,overflow) and alerted(operator).
func (tr *Trace) PropTrace() temporal.Trace {
	out := make(temporal.Trace, len(tr.Steps))
	for i, s := range tr.Steps {
		st := temporal.State{}
		if s.Overflow {
			st["state(tank,overflow)"] = true
		}
		if s.Alerted {
			st["alerted(operator)"] = true
		}
		out[i] = st
	}
	return out
}

// QualTrace abstracts the level waveform into qualitative states.
func (tr *Trace) QualTrace() []qual.State {
	qs := LevelSpace(tr.Config)
	return qual.AbstractTrace(qs, tr.Levels(), 1e-9)
}

// Injectable (component, fault) slots: the faults the plant has physics
// for. Simulate resolves every injection to one of them once, so each
// simulation step compares onset steps rather than strings.
const (
	slotInStuckOpen = iota
	slotInStuckClosed
	slotOutStuckOpen
	slotOutStuckClosed
	slotSensorNoSignal
	slotHMINoSignal
	slotEWSCompromised
	slotInCtlBadCommand
	slotOutCtlBadCommand
	numSlots
)

// slotFault is one injectable fault of a component and its slot.
type slotFault struct {
	fault string
	slot  int
}

// injectable lists, per component, the faults the plant can inject.
var injectable = map[string][]slotFault{
	CompInValve:     {{FaultStuckOpen, slotInStuckOpen}, {FaultStuckClosed, slotInStuckClosed}},
	CompOutValve:    {{FaultStuckOpen, slotOutStuckOpen}, {FaultStuckClosed, slotOutStuckClosed}},
	CompLevelSensor: {{FaultNoSignal, slotSensorNoSignal}},
	CompHMI:         {{FaultNoSignal, slotHMINoSignal}},
	CompEWS:         {{FaultCompromised, slotEWSCompromised}},
	CompInValveCtl:  {{FaultBadCommand, slotInCtlBadCommand}},
	CompOutValveCtl: {{FaultBadCommand, slotOutCtlBadCommand}},
}

// Simulate runs the plant under the fault injections.
func Simulate(cfg Config, injections []Injection) (*Trace, error) {
	onset, err := compile(cfg, injections)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Config: cfg, Steps: make([]Step, 0, cfg.Steps)}
	r := newRunState(cfg, onset)
	for r.t < cfg.Steps {
		tr.Steps = append(tr.Steps, r.step())
	}
	return tr, nil
}

// Stop says how much of a run Judge needs to see.
type Stop int

// Stop rules.
const (
	// StopAtOverflow ends the run at its first overflow: enough to
	// decide R1.
	StopAtOverflow Stop = iota
	// StopAtAlertAfterOverflow ends the run at the first alert at or
	// after its first overflow: enough to decide R2.
	StopAtAlertAfterOverflow
)

// Outcome is what a run says about the case study's requirements.
type Outcome struct {
	// Overflowed is Trace.Overflowed of the same run.
	Overflowed bool
	// AlertedAfterOverflow is Trace.AlertedAfterOverflow of the same run
	// under StopAtAlertAfterOverflow; StopAtOverflow leaves it false.
	AlertedAfterOverflow bool
}

// Judge runs the plant under the fault injections as Simulate does, but
// records no trace: it stops as soon as stop's verdict is settled and
// returns it. Errors are Simulate's.
func Judge(cfg Config, injections []Injection, stop Stop) (Outcome, error) {
	onset, err := compile(cfg, injections)
	if err != nil {
		return Outcome{}, err
	}
	return judge(cfg, onset, stop), nil
}

// FaultSet is a set of injectable faults resolved once from component and
// fault names, to be judged at any onset. The zero value is the empty
// set: a fault-free run.
type FaultSet struct{ slots uint16 }

// FaultSetFromScenario resolves an EPA scenario over the water-tank model
// to its faults, rejecting activations the plant cannot represent with
// InjectionsFromScenario's errors.
func FaultSetFromScenario(s epa.Scenario) (FaultSet, error) {
	var fs FaultSet
	for _, a := range s {
		slot, err := slotOf(Injection{Component: a.Component, Fault: a.Fault})
		if err != nil {
			return FaultSet{}, err
		}
		fs.slots |= 1 << slot
	}
	return fs, nil
}

// Judge is the package-level Judge with every fault of fs injected at
// step at: the injections InjectionsFromScenario returns, with AtStep set
// to at.
func (fs FaultSet) Judge(cfg Config, at int, stop Stop) (Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return Outcome{}, err
	}
	onset := never()
	for s := range onset {
		if fs.slots&(1<<s) != 0 {
			onset[s] = at
		}
	}
	return judge(cfg, onset, stop), nil
}

// judge steps a run until stop's verdict is settled or the horizon ends.
// Within a step the overflow is seen before the alert, so an alert on
// the first overflowing step counts as after it, as in
// Trace.AlertedAfterOverflow.
func judge(cfg Config, onset [numSlots]int, stop Stop) Outcome {
	var out Outcome
	r := newRunState(cfg, onset)
	for r.t < cfg.Steps {
		s := r.step()
		if s.Overflow {
			out.Overflowed = true
			if stop == StopAtOverflow {
				return out
			}
		}
		if out.Overflowed && s.Alerted {
			out.AlertedAfterOverflow = true
			return out
		}
	}
	return out
}

// never returns onsets at which no slot ever activates.
func never() [numSlots]int {
	var onset [numSlots]int
	for s := range onset {
		onset[s] = math.MaxInt
	}
	return onset
}

// compile validates cfg and injections and resolves the injections to
// per-slot onsets: onset[s] is the earliest step from which slot s is
// active; a slot no injection names never activates.
func compile(cfg Config, injections []Injection) ([numSlots]int, error) {
	onset := never()
	if err := cfg.Validate(); err != nil {
		return onset, err
	}
	for _, inj := range injections {
		s, err := slotOf(inj)
		if err != nil {
			return onset, err
		}
		onset[s] = min(onset[s], inj.AtStep)
	}
	return onset, nil
}

// runState is a simulation between two steps: the plant's state and the
// compiled injections driving it.
type runState struct {
	cfg             Config
	onset           [numSlots]int
	t               int
	level           float64
	inOpen, outOpen float64
	lastReading     float64
}

func newRunState(cfg Config, onset [numSlots]int) runState {
	return runState{
		cfg:   cfg,
		onset: onset,
		level: cfg.InitialLevel,
		// Steady-state posture around the setpoint.
		inOpen: 0, outOpen: 1,
		lastReading: cfg.InitialLevel,
	}
}

// step advances the run by one step and returns the step's record. It is
// the plant's only copy of the control and physics.
func (r *runState) step() Step {
	cfg, t, onset := &r.cfg, r.t, &r.onset
	r.t++
	ewsCompromised := t >= onset[slotEWSCompromised]

	// Sensor.
	sensorDead := t >= onset[slotSensorNoSignal]
	if !sensorDead {
		r.lastReading = r.level
	}

	// Tank controller: hysteresis on the last good reading.
	var cmdIn, cmdOut float64 = r.inOpen, r.outOpen
	switch {
	case r.lastReading <= cfg.LowMark:
		cmdIn, cmdOut = 1, 0
	case r.lastReading >= cfg.HighMark:
		cmdIn, cmdOut = 0, 1
	}

	// Valve controllers: forward commands unless reconfigured by the
	// attacker (directly or through the compromised workstation, which
	// "can cause F1, F2, and F3" per the paper).
	inCtlBad := t >= onset[slotInCtlBadCommand] || ewsCompromised
	outCtlBad := t >= onset[slotOutCtlBadCommand] || ewsCompromised
	if inCtlBad {
		cmdIn = 1 // attacker forces filling
	}
	if outCtlBad {
		cmdOut = 0 // attacker blocks draining
	}

	// Valves: physical stuck-at faults dominate commands.
	inOpen, outOpen := cmdIn, cmdOut
	if t >= onset[slotInStuckOpen] {
		inOpen = 1
	}
	if t >= onset[slotInStuckClosed] {
		inOpen = 0
	}
	if t >= onset[slotOutStuckOpen] {
		outOpen = 1
	}
	if t >= onset[slotOutStuckClosed] {
		outOpen = 0
	}
	r.inOpen, r.outOpen = inOpen, outOpen

	// Physics.
	qin := inOpen * cfg.InFlowMax
	qout := outOpen * cfg.OutFlowMax
	if r.level <= 0 && qout > qin {
		qout = qin // cannot drain an empty tank below zero
	}
	next := r.level + (qin-qout)*cfg.DT/cfg.Area
	overflow := false
	if next >= cfg.Capacity {
		overflow = next > cfg.Capacity || qin > qout
		next = cfg.Capacity
	}
	if next < 0 {
		next = 0
	}
	r.level = next

	// Alerting: the controller raises an alert from the reading; a dead
	// HMI (or one silenced through the compromised workstation) loses it.
	hmiDead := t >= onset[slotHMINoSignal] || ewsCompromised
	alertRaised := !sensorDead && r.lastReading >= cfg.AlertMark
	alerted := alertRaised && !hmiDead

	return Step{
		T: t, Level: next, InFlow: qin, OutFlow: qout,
		Overflow: overflow, Alerted: alerted,
	}
}

// slotOf validates an injection and returns its slot.
func slotOf(inj Injection) (int, error) {
	faults, ok := injectable[inj.Component]
	if !ok {
		return 0, fmt.Errorf("plant: cannot inject into component %q", inj.Component)
	}
	for _, f := range faults {
		if f.fault == inj.Fault {
			if inj.AtStep < 0 {
				return 0, fmt.Errorf("plant: negative injection step %d", inj.AtStep)
			}
			return f.slot, nil
		}
	}
	return 0, fmt.Errorf("plant: component %q has no fault %q", inj.Component, inj.Fault)
}

// InjectionsFromScenario converts an EPA scenario over the water-tank
// model into plant injections active from step 0. Activations the plant
// cannot represent (e.g. faults of abstract assets without physics) are
// reported as errors so callers never silently drop attack content.
func InjectionsFromScenario(s epa.Scenario) ([]Injection, error) {
	out := make([]Injection, 0, len(s))
	for _, a := range s {
		inj := Injection{Component: a.Component, Fault: a.Fault}
		if _, err := slotOf(inj); err != nil {
			return nil, err
		}
		out = append(out, inj)
	}
	return out, nil
}

// SettledLevel returns the final level of the run.
func (tr *Trace) SettledLevel() float64 {
	if len(tr.Steps) == 0 {
		return math.NaN()
	}
	return tr.Steps[len(tr.Steps)-1].Level
}
