package serve

import (
	"slices"
	"strconv"
	"testing"
)

// FuzzParseNodes drives the line-format parser with arbitrary bodies. It
// must never panic, must report either -1 or an offset inside the body,
// and a body it accepts must re-encode — one decimal ID per LF line — to
// a body that parses back to the same IDs.
func FuzzParseNodes(f *testing.F) {
	for _, seed := range []string{
		"", "0", "1\n2\n3\n", "\r\n\n 7\r\n\t8\n", "12a\n", "-1\n", "1 2\n", "+3\n",
		"999999999999999999\n", "9999999999999999999\n", "0007\n\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := &batchScratch{body: body}
		badAt := sc.parseNodes()
		if badAt < -1 || badAt >= len(body) {
			t.Fatalf("parseNodes(%q) = %d, want -1 or an offset in [0, %d)", body, badAt, len(body))
		}
		if badAt >= 0 {
			return
		}
		ids := slices.Clone(sc.nodes)
		var enc []byte
		for _, id := range ids {
			if id < 0 {
				t.Fatalf("parseNodes(%q) accepted negative ID %d", body, id)
			}
			enc = strconv.AppendInt(enc, int64(id), 10)
			enc = append(enc, '\n')
		}
		re := &batchScratch{body: enc}
		if bad := re.parseNodes(); bad != -1 || !slices.Equal(re.nodes, ids) {
			t.Fatalf("re-encoded %q parses to %v (bad at %d), want %v", enc, re.nodes, bad, ids)
		}
	})
}
