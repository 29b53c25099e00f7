// Package petri implements the class of weighted place/transition Petri
// nets used as the intermediate representation of the quasi-static
// scheduling flow (Cortadella et al., DAC 2000).
//
// A net is a bipartite graph of places and transitions with weighted arcs.
// The package provides marking algebra (enabling, firing, covering),
// equal-conflict-set (ECS) computation, place degrees and the
// irrelevant-marking criterion of Section 4.4 of the paper, incidence
// matrices, and a text and a DOT rendering for people to read. A
// marking holds one four-byte count per place, at most MaxTokens:
// Validate and the wire decoder reject larger counts, and an
// exploration that would exceed it fails with ErrTokenOverflow.
//
// The exploration substrate shared by the reachability utilities and
// the scheduler's engines also lives here: MarkingStore hash-conses
// markings behind dense MarkIDs, holding each explored marking's tokens
// once in pages that never move; a FiringTable, built once per search
// from each transition's token effect (Transition.AppendDeltas), fires
// transitions, hashes successors in O(1), vetoes them against the caps
// and maintains per-marking enabled-ECS bitsets incrementally (firing
// a transition re-evaluates only the ECSs whose presets intersect the
// places whose counts changed); and Drive is the one level-synchronous
// exploration driver, run inline or on a FrontierRunner (worker
// processes), with state numbering byte-identical either way.
package petri

import "fmt"

// TransKind distinguishes ordinary transitions from the environment
// source/sink transitions introduced by linking.
type TransKind int

const (
	// TransNormal is an internal computation transition.
	TransNormal TransKind = iota
	// TransSourceUnc is an uncontrollable environment source: the
	// environment decides when it fires; each such transition defines
	// one task of the synthesized software.
	TransSourceUnc
	// TransSourceCtl is a controllable environment source: the scheduler
	// may fire it to request further input.
	TransSourceCtl
	// TransSink consumes tokens sent to the environment.
	TransSink
)

// String implements fmt.Stringer.
func (k TransKind) String() string {
	switch k {
	case TransNormal:
		return "normal"
	case TransSourceUnc:
		return "source-unc"
	case TransSourceCtl:
		return "source-ctl"
	case TransSink:
		return "sink"
	}
	return fmt.Sprintf("TransKind(%d)", int(k))
}

// PlaceKind classifies places by their origin in the FlowC specification.
type PlaceKind int

const (
	// PlaceInternal is a program-counter place of a sequential process:
	// exactly one internal place of each process is marked at a time.
	PlaceInternal PlaceKind = iota
	// PlacePort is a dangling port place before linking.
	PlacePort
	// PlaceChannel is a merged port place representing a communication
	// channel after linking.
	PlaceChannel
	// PlaceComplement is the complement place of a bounded channel: its
	// token count is bound minus the channel occupancy, so a blocking
	// write is an ordinary enabling condition.
	PlaceComplement
)

// String implements fmt.Stringer.
func (k PlaceKind) String() string {
	switch k {
	case PlaceInternal:
		return "internal"
	case PlacePort:
		return "port"
	case PlaceChannel:
		return "channel"
	case PlaceComplement:
		return "complement"
	}
	return fmt.Sprintf("PlaceKind(%d)", int(k))
}

// Arc is one weighted arc endpoint: the identified place and the arc
// weight (always >= 1).
type Arc struct {
	Place  int
	Weight int
}

// Place is a net place. ID is its index in Net.Places.
type Place struct {
	ID      int
	Name    string
	Kind    PlaceKind
	Initial int    // tokens under the initial marking
	Bound   int    // user-specified bound; 0 means unbounded
	Process string // owning process name; "" for merged channels
	// Cond is the payload attached by the compiler to choice places
	// representing data-dependent control: typically an expression AST.
	Cond any
}

// Transition is a net transition. ID is its index in Net.Transitions.
type Transition struct {
	ID      int
	Name    string
	Kind    TransKind
	Process string // owning process; "" for environment transitions
	Label   string // branch label, e.g. "T"/"F" for a data choice
	// Code is the payload attached by the compiler: the fragment of
	// sequential code executed when the transition fires.
	Code any

	In  []Arc // preset arcs (places consumed from)
	Out []Arc // postset arcs (places produced to)
}

// Net is a weighted Petri net. Places and transitions are identified by
// their slice index; arcs are stored on the transitions. A Net is plain
// data: once built, any number of goroutines may read it at once, as
// long as none mutates it.
type Net struct {
	Name        string
	Places      []*Place
	Transitions []*Transition
}

// New returns an empty net with the given name.
func New(name string) *Net {
	return &Net{Name: name}
}

// AddPlace appends a place and returns it. Initial is the token count of
// the initial marking.
func (n *Net) AddPlace(name string, kind PlaceKind, initial int) *Place {
	p := &Place{ID: len(n.Places), Name: name, Kind: kind, Initial: initial}
	n.Places = append(n.Places, p)
	return p
}

// AddTransition appends a transition and returns it.
func (n *Net) AddTransition(name string, kind TransKind) *Transition {
	t := &Transition{ID: len(n.Transitions), Name: name, Kind: kind}
	n.Transitions = append(n.Transitions, t)
	return t
}

// AddArc adds a weighted arc from place p to transition t (consumption).
// Adding a second arc between the same pair accumulates the weight.
func (n *Net) AddArc(p *Place, t *Transition, w int) {
	if w <= 0 {
		panic(fmt.Sprintf("petri: non-positive arc weight %d (%s -> %s)", w, p.Name, t.Name))
	}
	for i := range t.In {
		if t.In[i].Place == p.ID {
			t.In[i].Weight += w
			return
		}
	}
	t.In = append(t.In, Arc{Place: p.ID, Weight: w})
}

// AddArcTP adds a weighted arc from transition t to place p (production).
func (n *Net) AddArcTP(t *Transition, p *Place, w int) {
	if w <= 0 {
		panic(fmt.Sprintf("petri: non-positive arc weight %d (%s -> %s)", w, t.Name, p.Name))
	}
	for i := range t.Out {
		if t.Out[i].Place == p.ID {
			t.Out[i].Weight += w
			return
		}
	}
	t.Out = append(t.Out, Arc{Place: p.ID, Weight: w})
}

// AddSelfLoop adds a read arc emulated as a consume/produce self loop of
// weight w: the transition is enabled only when p holds at least w tokens
// but firing leaves p unchanged. Used for SELECT availability tests.
func (n *Net) AddSelfLoop(p *Place, t *Transition, w int) {
	n.AddArc(p, t, w)
	n.AddArcTP(t, p, w)
}

// Successors returns the IDs of transitions consuming from place id, in
// ascending order.
func (n *Net) Successors(id int) []int {
	var out []int
	for _, t := range n.Transitions {
		if t.Weight(id) > 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

// PlaceByName returns the first place with the given name, or nil.
func (n *Net) PlaceByName(name string) *Place {
	for _, p := range n.Places {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// InitialMarking returns the initial marking of the net.
func (n *Net) InitialMarking() Marking {
	m := make(Marking, len(n.Places))
	for i, p := range n.Places {
		m[i] = int32(p.Initial)
	}
	return m
}

// Weight returns F(p, t), the weight of the arc from place p to
// transition t, or 0 if there is no such arc.
func (t *Transition) Weight(place int) int {
	for _, a := range t.In {
		if a.Place == place {
			return a.Weight
		}
	}
	return 0
}

// OutWeight returns F(t, p), the weight of the arc from transition t to
// place p, or 0 if there is no such arc.
func (t *Transition) OutWeight(place int) int {
	for _, a := range t.Out {
		if a.Place == place {
			return a.Weight
		}
	}
	return 0
}

// IsSource reports whether the transition has an empty effective preset,
// i.e. F(p,t) == 0 for all places. Environment source transitions are
// sources by construction.
func (t *Transition) IsSource() bool {
	return len(t.In) == 0
}

// Validate checks structural invariants: arc endpoints in range, positive
// weights, at most one arc each way between a place and a transition
// (AddArc merges parallel arcs; Transition.AppendDeltas relies on it),
// non-negative initial markings and bounds, every count, bound and
// weight at most MaxTokens (checked after AddArc's merge), and source
// kinds consistent with presets. It returns the first violation found.
func (n *Net) Validate() error {
	for _, p := range n.Places {
		if p.Initial < 0 || p.Initial > MaxTokens {
			return fmt.Errorf("place %s: initial marking %d out of range [0, %d]", p.Name, p.Initial, MaxTokens)
		}
		if p.Bound < 0 || p.Bound > MaxTokens {
			return fmt.Errorf("place %s: bound %d out of range [0, %d]", p.Name, p.Bound, MaxTokens)
		}
	}
	// seen[p] is the stamp of the last (transition, direction) with an
	// arc on p.
	seen := make([]int, len(n.Places))
	for ti, t := range n.Transitions {
		for dir, arcs := range [2][]Arc{t.In, t.Out} {
			for _, a := range arcs {
				if a.Place < 0 || a.Place >= len(n.Places) {
					return fmt.Errorf("transition %s: arc references place %d out of range", t.Name, a.Place)
				}
				if a.Weight <= 0 || a.Weight > MaxTokens {
					return fmt.Errorf("transition %s: arc weight %d out of range [1, %d]", t.Name, a.Weight, MaxTokens)
				}
				stamp := 2*ti + dir + 1
				if seen[a.Place] == stamp {
					return fmt.Errorf("transition %s: two %s arcs on place %s", t.Name, [2]string{"input", "output"}[dir], n.Places[a.Place].Name)
				}
				seen[a.Place] = stamp
			}
		}
		if (t.Kind == TransSourceUnc || t.Kind == TransSourceCtl) && len(t.In) != 0 {
			return fmt.Errorf("transition %s: source kind %v but non-empty preset", t.Name, t.Kind)
		}
	}
	return nil
}

// String returns a short human-readable summary.
func (n *Net) String() string {
	return fmt.Sprintf("net %s: %d places, %d transitions", n.Name, len(n.Places), len(n.Transitions))
}
