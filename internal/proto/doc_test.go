package proto

// TestProtocolDocLockstep keeps docs/PROTOCOL.md and this package from
// drifting apart: it parses the opcode and error-code tables out of the
// markdown and asserts every (name, value) pair against the package's
// own tables, in both directions.

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// docRow matches a markdown table row starting with `Name` | `0xNN` or
// `Name` | `N`.
var docRow = regexp.MustCompile("(?m)^\\| `([A-Za-z]+)` \\| `(0x[0-9a-fA-F]+|[0-9]+)` \\|")

func parseDocTables(t *testing.T) map[string]byte {
	t.Helper()
	data, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("the protocol doc must exist next to the protocol package: %v", err)
	}
	out := map[string]byte{}
	for _, m := range docRow.FindAllStringSubmatch(string(data), -1) {
		name, lit := m[1], m[2]
		v, err := strconv.ParseUint(lit, 0, 8)
		if err != nil {
			t.Fatalf("doc row %q: bad value %q: %v", name, lit, err)
		}
		if prev, dup := out[name]; dup && prev != byte(v) {
			t.Fatalf("doc lists %s twice with different values", name)
		}
		out[name] = byte(v)
	}
	if len(out) == 0 {
		t.Fatal("no table rows parsed from docs/PROTOCOL.md — table format changed?")
	}
	return out
}

func TestProtocolDocLockstep(t *testing.T) {
	doc := parseDocTables(t)

	// Every opcode and error code in the implementation must appear in
	// the doc with the same value. (Batch kinds ride along because the
	// doc lists them in prose, not a table — they are asserted here
	// directly against their spec values instead.)
	impl := map[string]byte{}
	for op, name := range opNames {
		impl[name] = op
	}
	for code, name := range errNames {
		impl[name] = code
	}
	for name, v := range impl {
		got, ok := doc[name]
		if !ok {
			t.Errorf("%s (0x%02x) is not documented in docs/PROTOCOL.md", name, v)
			continue
		}
		if got != v {
			t.Errorf("%s: doc says 0x%02x, implementation says 0x%02x", name, got, v)
		}
	}

	// Every documented name must exist in the implementation — the doc
	// cannot promise opcodes the server does not speak.
	for name, v := range doc {
		if impl[name] != v {
			t.Errorf("doc row %s = 0x%02x has no matching implementation constant", name, v)
		}
	}

	// Spec constants the doc states in prose.
	if BatchPut != 0 || BatchGet != 1 || BatchDel != 2 {
		t.Error("batch kind values drifted from docs/PROTOCOL.md prose")
	}
	if FlagReply != 0x80 {
		t.Errorf("FlagReply = 0x%02x, doc says 0x80", FlagReply)
	}
	if Version != 4 {
		t.Errorf("Version = %d, doc says 4", Version)
	}
	if TraceExtLen != 17 {
		t.Errorf("TraceExtLen = %d, doc says 17 (trace id 8 + span id 8 + flags 1)", TraceExtLen)
	}
	if MaxPayload != 1<<20 {
		t.Errorf("MaxPayload = %d, doc says 1 MiB", MaxPayload)
	}
	if MaxBatchGet != (1<<20-12)/9 {
		t.Errorf("MaxBatchGet = %d, doc says floor((1 MiB - 12)/9)", MaxBatchGet)
	}
	if MaxRangeItems != (1<<20-13)/16 {
		t.Errorf("MaxRangeItems = %d, doc says floor((1 MiB - 13)/16)", MaxRangeItems)
	}
	if MaxSyncChunk != 1<<20-1 {
		t.Errorf("MaxSyncChunk = %d, doc says 1 MiB - 1", MaxSyncChunk)
	}
	if MaxNSName != 128 {
		t.Errorf("MaxNSName = %d, doc says 128", MaxNSName)
	}
	if MaxListNS != (1<<20-12)/11 {
		t.Errorf("MaxListNS = %d, doc says floor((1 MiB - 12)/11)", MaxListNS)
	}
	// The bounds must actually keep the replies under the cap.
	if 12+9*MaxBatchGet > MaxPayload || 13+16*MaxRangeItems > MaxPayload ||
		1+MaxSyncChunk > MaxPayload ||
		12+11*MaxListNS > MaxPayload {
		t.Error("reply-size bounds do not fit MaxPayload")
	}
}
