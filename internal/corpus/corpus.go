package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// maxEdgeTokens caps ops*width on one tree channel: the quasi-static
// search explores the product of channel fills and stage positions, so
// unbounded per-edge bursts would make deep trees intractable whatever
// the other knobs say. The cap sat at 4 while marking identity was
// string-keyed; the hash-consed store visits states roughly 5x faster
// and ~250x leaner, which is what pays for bursts of 8 within the same
// search budget.
const maxEdgeTokens = 8

// Config bounds the random shape of generated apps; see the package
// documentation for the role of each knob. The zero value is not
// usable — start from DefaultConfig.
type Config struct {
	MinPipelines, MaxPipelines int
	MinStages, MaxStages       int
	MaxFanOut                  int
	MaxOps                     int
	MaxWidth                   int
	ChoiceDensity              float64
	SelectDensity              float64
	BoundDensity               float64
}

// DefaultConfig returns the shape distribution used by the batch driver
// and the benchmarks: multi-task apps with every pattern enabled. The
// burst ranges assume the hash-consed schedule search: 8 tokens per
// edge (MaxOps/MaxWidth up to 4) was beyond the PR-1 string-keyed
// engine's budget. Tree depth stays at 3 — the marking graph is the
// product of channel fills, and a fourth stage of 8-token edges blows
// past any practical node budget no matter how cheap a state is.
func DefaultConfig() Config {
	return Config{
		MinPipelines:  1,
		MaxPipelines:  3,
		MinStages:     1,
		MaxStages:     3,
		MaxFanOut:     2,
		MaxOps:        4,
		MaxWidth:      4,
		ChoiceDensity: 0.4,
		SelectDensity: 0.25,
		BoundDensity:  0.3,
	}
}

// App is one generated FlowC application plus its netlist and the
// oracle data the property tests check against.
type App struct {
	Name  string
	FlowC string
	Spec  string
	// Triggers are the uncontrollable environment inputs, one per
	// pipeline.
	Triggers []string
	// DetOutputs maps each deterministic environment output to the
	// number of items it must deliver per trigger of its pipeline.
	// Data-dependent tap outputs are not listed.
	DetOutputs map[string]int
	// Procs counts the generated processes.
	Procs int
}

// GenerateCorpus derives n apps from one master seed. Same seed, n and
// config produce byte-identical apps. Non-positive n yields an empty
// corpus.
func GenerateCorpus(seed int64, n int, cfg Config) []*App {
	if n < 0 {
		n = 0
	}
	master := rand.New(rand.NewSource(seed))
	apps := make([]*App, n)
	for i := range apps {
		apps[i] = Generate(rand.New(rand.NewSource(master.Int63())), fmt.Sprintf("app%03d", i), cfg)
	}
	return apps
}

// Generate produces one app, drawing all randomness from rng.
func Generate(rng *rand.Rand, name string, cfg Config) *App {
	g := &gen{rng: rng, cfg: cfg, app: &App{Name: name, DetOutputs: map[string]int{}}}
	fmt.Fprintf(&g.spec, "system %s\n", name)
	pipes := g.between(cfg.MinPipelines, cfg.MaxPipelines)
	for p := 0; p < pipes; p++ {
		if rng.Float64() < cfg.SelectDensity {
			g.selectPipeline(p)
		} else {
			g.treePipeline(p)
		}
	}
	g.app.FlowC = g.src.String()
	g.app.Spec = g.spec.String()
	return g.app
}

type gen struct {
	rng  *rand.Rand
	cfg  Config
	app  *App
	src  strings.Builder
	spec strings.Builder
}

func (g *gen) between(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.rng.Intn(hi-lo+1)
}

// edge is one tree channel: ops unrolled operations of width items each
// per activation, so ops*width tokens cross per trigger.
type edge struct {
	ops, width int
	child      int
}

// stage is one process of a tree pipeline.
type stage struct {
	idx      int
	inOps    int // unrolled reads from the parent (0 for the root)
	inWidth  int
	children []edge
	choice   int // 0 none, 1 if-tap, 2 while-tap
	outOps   int // unrolled writes to the environment (leaves only)
	acks     int // ack channels collected by the root, one per leaf
}

// treePipeline emits a fan-out tree of fixed-rate stages rooted at an
// uncontrollable trigger. Every leaf acknowledges its burst back to the
// root, which collects all acknowledgements before awaiting the next
// trigger: like the paper's pixel-pipe ack, this keeps exactly one
// burst in flight, so the schedule search explores interleavings within
// a single burst instead of the product over unboundedly many.
func (g *gen) treePipeline(p int) {
	total := g.between(g.cfg.MinStages, g.cfg.MaxStages)
	stages := make([]*stage, 1, total)
	stages[0] = &stage{idx: 0}
	queue := []int{0}
	remaining := total - 1
	for remaining > 0 && len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		fan := g.between(1, min(g.cfg.MaxFanOut, remaining))
		for c := 0; c < fan; c++ {
			// Cap the tokens crossing one edge per activation at
			// maxEdgeTokens: schedule-search cost grows with the product
			// of channel fills across the tree, and unbounded products
			// push realistic shapes past the search budget. Both draws
			// respect the cap, whatever MaxWidth/MaxOps are set to.
			width := g.between(1, min(g.cfg.MaxWidth, maxEdgeTokens))
			ops := g.between(1, min(g.cfg.MaxOps, max(1, maxEdgeTokens/width)))
			child := &stage{idx: len(stages), inOps: ops, inWidth: width}
			stages = append(stages, child)
			stages[cur].children = append(stages[cur].children, edge{ops: ops, width: width, child: child.idx})
			queue = append(queue, child.idx)
			remaining--
		}
	}
	var leaves []int
	for _, s := range stages {
		if g.rng.Float64() < g.cfg.ChoiceDensity {
			s.choice = g.between(1, 2)
		}
		if len(s.children) == 0 {
			s.outOps = g.between(1, g.cfg.MaxOps)
			if s.idx != 0 {
				leaves = append(leaves, s.idx)
			}
		}
	}
	stages[0].acks = len(leaves)

	proc := func(s *stage) string { return fmt.Sprintf("p%ds%d", p, s.idx) }
	trigger := fmt.Sprintf("go%d", p)
	g.app.Triggers = append(g.app.Triggers, trigger)
	fmt.Fprintf(&g.spec, "input %s -> %s.go uncontrollable\n", trigger, proc(stages[0]))

	for _, s := range stages {
		g.emitTreeStage(p, s, proc(s), s.idx != 0 && s.outOps > 0)
		for e, ch := range s.children {
			line := fmt.Sprintf("channel C%d_%de%d %s.o%d -> %s.in", p, s.idx, e, proc(s), e, proc(stages[ch.child]))
			if g.rng.Float64() < g.cfg.BoundDensity {
				line += fmt.Sprintf(" bound=%d", ch.ops*ch.width)
			}
			g.spec.WriteString(line + "\n")
		}
		if s.outOps > 0 {
			out := "res_" + proc(s)
			fmt.Fprintf(&g.spec, "output %s.out -> %s\n", proc(s), out)
			g.app.DetOutputs[out] = s.outOps
		}
		if s.choice != 0 {
			fmt.Fprintf(&g.spec, "output %s.tap -> tap_%s\n", proc(s), proc(s))
		}
	}
	for j, leaf := range leaves {
		fmt.Fprintf(&g.spec, "channel A%d_%d %s.ack -> %s.ack%d\n", p, leaf, proc(stages[leaf]), proc(stages[0]), j)
	}
	g.app.Procs += len(stages)
}

// emitTreeStage writes the FlowC text of one fixed-rate stage. Channel
// operations are unrolled straight-line code so their token counts stay
// structurally fixed; only pure compute and environment-tap writes sit
// behind data-dependent control. isLeaf stages acknowledge their burst
// back to the root.
func (g *gen) emitTreeStage(p int, s *stage, name string, isLeaf bool) {
	w := &g.src
	fmt.Fprintf(w, "\nPROCESS %s (", name)
	if s.inOps == 0 {
		fmt.Fprint(w, "In DPORT go")
	} else {
		fmt.Fprint(w, "In DPORT in")
	}
	for j := 0; j < s.acks; j++ {
		fmt.Fprintf(w, ", In DPORT ack%d", j)
	}
	for e := range s.children {
		fmt.Fprintf(w, ", Out DPORT o%d", e)
	}
	if s.choice != 0 {
		fmt.Fprint(w, ", Out DPORT tap")
	}
	if s.outOps > 0 {
		fmt.Fprint(w, ", Out DPORT out")
	}
	if isLeaf {
		fmt.Fprint(w, ", Out DPORT ack")
	}
	fmt.Fprint(w, ") {\n")

	fmt.Fprint(w, "  int v, acc, i;\n")
	if s.choice == 2 {
		fmt.Fprint(w, "  int t0;\n")
	}
	if s.inWidth > 1 {
		fmt.Fprintf(w, "  int rbuf[%d];\n", s.inWidth)
	}
	maxW := 0
	for _, ch := range s.children {
		if ch.width > maxW {
			maxW = ch.width
		}
	}
	if maxW > 1 {
		fmt.Fprintf(w, "  int wbuf[%d];\n", maxW)
	}
	fmt.Fprint(w, "  while (1) {\n")

	bias := g.between(0, 9)
	if s.inOps == 0 {
		fmt.Fprint(w, "    READ_DATA(go, &v, 1);\n")
		fmt.Fprintf(w, "    acc = v + %d;\n", bias)
	} else {
		fmt.Fprintf(w, "    acc = %d;\n", bias)
		for k := 0; k < s.inOps; k++ {
			if s.inWidth == 1 {
				fmt.Fprint(w, "    READ_DATA(in, &v, 1);\n")
				fmt.Fprint(w, "    acc = acc + v;\n")
			} else {
				fmt.Fprintf(w, "    READ_DATA(in, rbuf, %d);\n", s.inWidth)
				fmt.Fprintf(w, "    for (i = 0; i < %d; i++) {\n      acc = acc + rbuf[i];\n    }\n", s.inWidth)
			}
		}
	}

	switch s.choice {
	case 1:
		fmt.Fprint(w, "    if (acc % 2 == 0) {\n      WRITE_DATA(tap, acc, 1);\n    }\n")
	case 2:
		fmt.Fprintf(w, "    t0 = acc %% %d;\n", g.between(2, 4))
		fmt.Fprint(w, "    while (t0 > 0) {\n      WRITE_DATA(tap, t0, 1);\n      t0 = t0 - 1;\n    }\n")
	}

	for e, ch := range s.children {
		for k := 0; k < ch.ops; k++ {
			if ch.width == 1 {
				fmt.Fprintf(w, "    WRITE_DATA(o%d, acc + %d, 1);\n", e, k)
			} else {
				fmt.Fprintf(w, "    for (i = 0; i < %d; i++) {\n      wbuf[i] = acc + i + %d;\n    }\n", ch.width, k)
				fmt.Fprintf(w, "    WRITE_DATA(o%d, wbuf, %d);\n", e, ch.width)
			}
		}
	}
	for k := 0; k < s.outOps; k++ {
		fmt.Fprintf(w, "    WRITE_DATA(out, acc + %d, 1);\n", k)
	}
	if isLeaf {
		fmt.Fprint(w, "    WRITE_DATA(ack, 0, 1);\n")
	}
	for j := 0; j < s.acks; j++ {
		fmt.Fprintf(w, "    READ_DATA(ack%d, &v, 1);\n", j)
	}
	fmt.Fprint(w, "  }\n}\n")
}

// selectPipeline emits the Section 7.2 SELECT-drain pair: a producer
// with a data-dependent pixel burst, an end-of-line marker and a
// one-in-flight acknowledgement, and a consumer draining via SELECT.
func (g *gen) selectPipeline(p int) {
	prod := fmt.Sprintf("p%ds0", p)
	cons := fmt.Sprintf("p%ds1", p)
	mul := g.between(1, 5)
	add := g.between(0, 9)
	fmt.Fprintf(&g.src, `
PROCESS %s (In DPORT go, In DPORT ack, Out DPORT pix, Out DPORT eol) {
  int n, i, a;
  while (1) {
    READ_DATA(go, &n, 1);
    for (i = 0; i < n; i++) {
      WRITE_DATA(pix, i * %d + %d, 1);
    }
    WRITE_DATA(eol, n, 1);
    READ_DATA(ack, &a, 1);
  }
}

PROCESS %s (In DPORT pix, In DPORT eol, Out DPORT out, Out DPORT ack) {
  int v, e, done, sum;
  while (1) {
    done = 0;
    sum = 0;
    while (!done) {
      switch (SELECT(pix, 1, eol, 1)) {
      case 0:
        READ_DATA(pix, &v, 1);
        sum = sum + v;
        break;
      case 1:
        READ_DATA(eol, &e, 1);
        WRITE_DATA(ack, 0, 1);
        done = 1;
        break;
      }
    }
    WRITE_DATA(out, sum, 1);
  }
}
`, prod, mul, add, cons)

	trigger := fmt.Sprintf("go%d", p)
	g.app.Triggers = append(g.app.Triggers, trigger)
	fmt.Fprintf(&g.spec, "channel P%dpix %s.pix -> %s.pix\n", p, prod, cons)
	fmt.Fprintf(&g.spec, "channel P%deol %s.eol -> %s.eol\n", p, prod, cons)
	fmt.Fprintf(&g.spec, "channel P%dack %s.ack -> %s.ack\n", p, cons, prod)
	fmt.Fprintf(&g.spec, "input %s -> %s.go uncontrollable\n", trigger, prod)
	out := "res_" + cons
	fmt.Fprintf(&g.spec, "output %s.out -> %s\n", cons, out)
	g.app.DetOutputs[out] = 1
	g.app.Procs += 2
}
