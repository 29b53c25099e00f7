package link_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/link"
)

// FuzzParseSpec feeds arbitrary text to the netlist parser, seeded with
// the example apps' netlists. No input may panic, and every accepted
// spec must survive FormatSpec -> ParseSpec -> FormatSpec as a fixed
// point.
func FuzzParseSpec(f *testing.F) {
	for _, src := range []string{apps.DivisorsSpec, apps.PixelPipeSpec, apps.FalsePathPlainSpec,
		apps.FalsePathFixedSpec, apps.PFCSpec, apps.MultiRateSpec} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := link.ParseSpec(strings.NewReader(src))
		if err != nil {
			return
		}
		var first strings.Builder
		if err := link.FormatSpec(spec, &first); err != nil {
			t.Fatal(err)
		}
		again, err := link.ParseSpec(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("formatted spec rejected: %v\n%s", err, first.String())
		}
		var second strings.Builder
		if err := link.FormatSpec(again, &second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("format is not a fixed point:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}
