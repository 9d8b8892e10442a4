package obs

import (
	"strings"
	"testing"
)

// lowerHexID reports whether id is exactly n lowercase hex digits, not all
// zeros. It is written independently of isHex so the fuzz target does not
// check the parser against itself.
func lowerHexID(id string, n int) bool {
	return len(id) == n &&
		strings.Trim(id, "0123456789abcdef") == "" &&
		strings.Trim(id, "0") != ""
}

// FuzzParseTraceparent drives the traceparent parser, the first code an
// untrusted request header reaches, with arbitrary strings. It must never
// panic; whatever it accepts must carry well-formed W3C IDs; and the
// version-00 rendering of an accepted header must parse back to the same
// (trace ID, span ID, sampled) triple.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	f.Add(" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03 ")
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		traceID, spanID, sampled, ok := ParseTraceparent(h)
		if !ok {
			if traceID != "" || spanID != "" || sampled {
				t.Fatalf("rejected %q but returned (%q, %q, %v)", h, traceID, spanID, sampled)
			}
			return
		}
		if !lowerHexID(traceID, 32) {
			t.Fatalf("accepted %q with trace ID %q", h, traceID)
		}
		if !lowerHexID(spanID, 16) {
			t.Fatalf("accepted %q with span ID %q", h, spanID)
		}
		back := FormatTraceparent(traceID, spanID, sampled)
		t2, s2, sampled2, ok2 := ParseTraceparent(back)
		if !ok2 || t2 != traceID || s2 != spanID || sampled2 != sampled {
			t.Fatalf("%q -> %q parsed back as (%q, %q, %v, %v), want (%q, %q, %v, true)",
				h, back, t2, s2, sampled2, ok2, traceID, spanID, sampled)
		}
	})
}
