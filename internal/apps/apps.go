// Package apps holds the FlowC applications used by the examples, tests
// and benchmarks: the divisors process of Figure 1, the Section 7.2
// false-path pair (plain and SELECT-fixed), and the Section 8.2 video
// application (producer / filter / consumer / controller, "PFC").
package apps

import (
	"fmt"

	"repro/internal/core"
)

// Divisors is the process of Figure 1: it reads numbers and emits all
// their divisors (the greatest on port max, all of them on port all).
const Divisors = `
PROCESS divisors (In DPORT in, Out DPORT max, Out DPORT all) {
  int n, i;
  while (1) {
    READ_DATA(in, &n, 1);
    i = n / 2;
    while (n % i != 0)
      i--;
    WRITE_DATA(max, i, 1);
    WRITE_DATA(all, i, 1);
    while (i > 1) {
      i--;
      if (n % i == 0)
        WRITE_DATA(all, i, 1);
    }
  }
}
`

// DivisorsSpec connects the divisors process to the environment.
const DivisorsSpec = `
system divisors
input in -> divisors.in uncontrollable
output divisors.max -> max
output divisors.all -> all
`

// PixelPipe is a two-process pixel pipeline: the producer emits a
// data-dependent number of pixels per trigger followed by an end-of-line
// marker; the consumer drains with a SELECT loop (the Section 7.2
// pattern), so the pair is schedulable despite the counted loop. The
// acknowledgement keeps at most one burst in flight — without it the
// free-running implementation could interleave bursts at the SELECT,
// which is exactly the schedule-dependence SELECT introduces (Section
// 7.1).
const PixelPipe = `
PROCESS producer (In DPORT go, In DPORT ack, Out DPORT pix, Out DPORT eol) {
  int n, i, a;
  while (1) {
    READ_DATA(go, &n, 1);
    for (i = 0; i < n; i++) {
      WRITE_DATA(pix, i * 3 + 1, 1);
    }
    WRITE_DATA(eol, n, 1);
    READ_DATA(ack, &a, 1);
  }
}

PROCESS consumer (In DPORT pix, In DPORT eol, Out DPORT out, Out DPORT ack) {
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
`

// PixelPipeSpec wires the pixel pipeline.
const PixelPipeSpec = `
system pixelpipe
channel Pix producer.pix -> consumer.pix
channel Eol producer.eol -> consumer.eol
channel Ack consumer.ack -> producer.ack
input go -> producer.go uncontrollable
output consumer.out -> sums
`

// FalsePathPlain is the unschedulable pair of Section 7.2: the loop
// bounds of A and B match (10 writes / 10 reads, then 2 / 2 the other
// way), but the Petri net abstraction loses the data correlation, so
// every quasi-static schedule hits a false overflow path. The processes
// are triggered by an uncontrollable go port to make them cyclic.
const FalsePathPlain = `
PROCESS a (In DPORT go, Out DPORT c0, In DPORT c1, Out DPORT res) {
  int g, i, v, acc;
  while (1) {
    READ_DATA(go, &g, 1);
    acc = 0;
    for (i = 0; i < 10; i++) {
      WRITE_DATA(c0, g + i, 1);
    }
    for (i = 0; i < 2; i++) {
      READ_DATA(c1, &v, 1);
      acc = acc + v;
    }
    WRITE_DATA(res, acc, 1);
  }
}

PROCESS b (In DPORT c0, Out DPORT c1) {
  int i, v, sum;
  while (1) {
    sum = 0;
    for (i = 0; i < 10; i++) {
      READ_DATA(c0, &v, 1);
      sum = sum + v;
    }
    for (i = 0; i < 2; i++) {
      WRITE_DATA(c1, sum + i, 1);
    }
  }
}
`

// FalsePathPlainSpec wires the plain pair.
const FalsePathPlainSpec = `
system falsepath
channel C0 a.c0 -> b.c0
channel C1 b.c1 -> a.c1
input go -> a.go uncontrollable
output a.res -> res
`

// FalsePathFixed is the SELECT-based rewrite of Section 7.2: A announces
// loop completion on done0 and B drains c0 with a SELECT until done0
// arrives, which lets the scheduler prove the overflow path false.
//
// One adaptation for cyclic (triggered) semantics, in the spirit of the
// paper's own footnote about the pattern's limits: the drain is applied
// to the forward path only and B's result goes to the environment. A
// backward drained response re-entering A deadlocks under adversarial
// choice resolution (both false T-branches can strand simultaneously
// with no process at its trigger await) — TestSymmetricDrainDeadlock
// demonstrates this.
const FalsePathFixed = `
PROCESS a (In DPORT go, Out DPORT c0, Out DPORT done0) {
  int g, i;
  while (1) {
    READ_DATA(go, &g, 1);
    for (i = 0; i < 10; i++) {
      WRITE_DATA(c0, g + i, 1);
    }
    WRITE_DATA(done0, 0, 1);
  }
}

PROCESS b (In DPORT c0, In DPORT done0, Out DPORT res) {
  int v, sum, done;
  while (1) {
    sum = 0;
    done = 0;
    while (!done) {
      switch (SELECT(c0, 1, done0, 1)) {
      case 0:
        READ_DATA(c0, &v, 1);
        sum = sum + v;
        break;
      case 1:
        READ_DATA(done0, &v, 1);
        done = 1;
        break;
      }
    }
    WRITE_DATA(res, sum, 1);
  }
}
`

// FalsePathFixedSpec wires the fixed pair.
const FalsePathFixedSpec = `
system falsepath_fixed
channel C0 a.c0 -> b.c0
channel D0 a.done0 -> b.done0
input go -> a.go uncontrollable
output b.res -> res
`

// SynthesizeFalsePathFixed runs the full flow on the fixed pair.
func SynthesizeFalsePathFixed() (*core.Result, error) {
	return core.Synthesize(FalsePathFixed, FalsePathFixedSpec, nil)
}

// TryFalsePathPlain attempts the plain pair; the expected outcome is a
// scheduling failure (conservative rejection of a schedulable program).
func TryFalsePathPlain() (*core.Result, error) {
	r, err := core.Synthesize(FalsePathPlain, FalsePathPlainSpec, nil)
	if err != nil {
		return nil, fmt.Errorf("falsepath (expected): %w", err)
	}
	return r, nil
}

// PFC is the video application of Section 8.2 (Figure 18): a producer
// generates frames of pixels, a filter scales them by a per-frame
// coefficient, a consumer emits the image to the display and
// acknowledges frame completion, and a controller — triggered by the
// only uncontrollable port, init — distributes coefficients (read from a
// controllable environment port) and kicks the producer.
//
// Frames are FrameLines lines of LinePixels pixels, transferred pixel by
// pixel (the paper's multi-rate discussion; the 4-task baseline then
// benefits from larger channel buffers, Figure 20). Filter and consumer
// are eternal SELECT loops over their inputs — in particular the
// coefficient is read "using SELECT, only if available, otherwise the
// ones received for the previous frame are used", exactly as in Section
// 8.2. This is load-bearing: a blocking coefficient read would let
// coefficients accumulate in false drain paths and make the system
// quasi-statically unschedulable.
const PFC = `
PROCESS controller (In DPORT init, In DPORT cin, In DPORT ack, Out DPORT coeff, Out DPORT req) {
  int cmd, c, a;
  while (1) {
    READ_DATA(init, &cmd, 1);
    READ_DATA(cin, &c, 1);
    WRITE_DATA(coeff, c, 1);
    WRITE_DATA(req, cmd, 1);
    READ_DATA(ack, &a, 1);
  }
}

PROCESS producer (In DPORT req, Out DPORT pix, Out DPORT eof) {
  int r, i, j;
  while (1) {
    READ_DATA(req, &r, 1);
    for (i = 0; i < 10; i++) {
      for (j = 0; j < 10; j++) {
        WRITE_DATA(pix, i * 10 + j + r, 1);
      }
    }
    WRITE_DATA(eof, 0, 1);
  }
}

PROCESS filter (In DPORT coeff, In DPORT pix, In DPORT eof, Out DPORT fpix, Out DPORT feof) {
  int c, v, d;
  c = 1;
  while (1) {
    switch (SELECT(coeff, 1, pix, 1, eof, 1)) {
    case 0:
      READ_DATA(coeff, &c, 1);
      break;
    case 1:
      READ_DATA(pix, &v, 1);
      v = v * c;
      WRITE_DATA(fpix, v, 1);
      break;
    case 2:
      READ_DATA(eof, &d, 1);
      WRITE_DATA(feof, 0, 1);
      break;
    }
  }
}

PROCESS consumer (In DPORT fpix, In DPORT feof, Out DPORT display, Out DPORT ack) {
  int v, d;
  while (1) {
    switch (SELECT(fpix, 1, feof, 1)) {
    case 0:
      READ_DATA(fpix, &v, 1);
      WRITE_DATA(display, v, 1);
      break;
    case 1:
      READ_DATA(feof, &d, 1);
      WRITE_DATA(ack, 0, 1);
      break;
    }
  }
}
`

// PFCSpec wires the video application (Figure 18).
const PFCSpec = `
system pfc
channel Coeff controller.coeff -> filter.coeff
channel Req controller.req -> producer.req
channel Ack consumer.ack -> controller.ack
channel Pix producer.pix -> filter.pix
channel Eof producer.eof -> filter.eof
channel FPix filter.fpix -> consumer.fpix
channel FEof filter.feof -> consumer.feof
input init -> controller.init uncontrollable
input cin -> controller.cin controllable
output consumer.display -> display
`

// FrameLines and LinePixels give the paper's frame geometry (Section
// 8.2: "frames were made by 10 lines of 10 pixels each").
const (
	FrameLines = 10
	LinePixels = 10
)

// FramePixels is the number of pixels per frame.
const FramePixels = FrameLines * LinePixels

// SynthesizePFC runs the full flow on the video application.
func SynthesizePFC() (*core.Result, error) {
	return SynthesizePFCWith(nil)
}

// SynthesizePFCWith runs the full flow on the video application under
// explicit pipeline options (nil = defaults).
func SynthesizePFCWith(opt *core.Options) (*core.Result, error) {
	return core.Synthesize(PFC, PFCSpec, opt)
}

// MultiRate is a line-based pipeline exercising the paper's multi-rate
// communication (Section 3): the producer writes a whole line of
// LinePixels pixels in one WRITE_DATA while the consumer drains it pixel
// by pixel — "the producer of an image may transfer a line of pixels in
// one port operation ... the consumer may read the line in a
// pixel-by-pixel basis".
const MultiRate = `
PROCESS src (In DPORT go, In DPORT ack, Out DPORT line, Out DPORT eol) {
  int g, a, j, buf[10];
  while (1) {
    READ_DATA(go, &g, 1);
    for (j = 0; j < 10; j++)
      buf[j] = g + j;
    WRITE_DATA(line, buf, 10);
    WRITE_DATA(eol, 0, 1);
    READ_DATA(ack, &a, 1);
  }
}

PROCESS snk (In DPORT line, In DPORT eol, Out DPORT out, Out DPORT ack) {
  int v, e;
  while (1) {
    switch (SELECT(line, 1, eol, 1)) {
    case 0:
      READ_DATA(line, &v, 1);
      WRITE_DATA(out, v * v, 1);
      break;
    case 1:
      READ_DATA(eol, &e, 1);
      WRITE_DATA(ack, 0, 1);
      break;
    }
  }
}
`

// MultiRateSpec wires the line-based pipeline.
const MultiRateSpec = `
system multirate
channel Line src.line -> snk.line
channel Eol src.eol -> snk.eol
channel Ack snk.ack -> src.ack
input go -> src.go uncontrollable
output snk.out -> out
`

// SynthesizeMultiRate runs the full flow on the line-based pipeline.
func SynthesizeMultiRate() (*core.Result, error) {
	return core.Synthesize(MultiRate, MultiRateSpec, nil)
}
