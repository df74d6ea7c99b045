package obs

import "testing"

// FuzzParseTraceparent drives the inbound traceparent decoder with arbitrary
// header values. The contract under fuzz: never panic, and every accepted
// value is exactly the wire form FormatTraceparent renders for the parsed
// context — the parser admits no alias spellings.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0123456789abcdef0123456789abcdef-deadbeefcafe0001-01")
	f.Add("00-0123456789ABCDEF0123456789abcdef-deadbeefcafe0001-01")
	f.Add("00-0123456789abcdef0123456789abcdef-0000000000000000-01")
	f.Add("01-0123456789abcdef0123456789abcdef-deadbeefcafe0001-00")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", s, tc)
		}
		if got := FormatTraceparent(tc); got != s {
			t.Fatalf("ParseTraceparent(%q) round-trips to %q", s, got)
		}
	})
}
