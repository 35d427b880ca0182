package server

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/proto"
)

// TestOpTableLockstep keeps the opcode table, the protocol's opcode
// names, the op= metric labels and docs/OBSERVABILITY.md's label table
// from drifting apart: an opcode added without a row, a row without a
// label, or a label without a doc line fails here.
func TestOpTableLockstep(t *testing.T) {
	rows := map[string]string{} // proto name -> label
	labels := map[string]bool{}
	for op := 0; op < 256; op++ {
		name := proto.OpName(byte(op))
		known := !strings.HasPrefix(name, "Op(") && byte(op) != proto.OpError
		spec := opTable[op]
		if known != (spec != nil) {
			t.Errorf("opcode %#02x: proto knows it = %v, opTable has a row = %v", op, known, spec != nil)
		}
		if spec == nil {
			continue
		}
		if spec.label == "" || labels[spec.label] {
			t.Errorf("%s: label %q is empty or already taken", name, spec.label)
		}
		if spec.coalesced != (spec.serve == nil) {
			t.Errorf("%s: coalesced = %v but serve set = %v; exactly one of the two serves a row", name, spec.coalesced, spec.serve != nil)
		}
		rows[name] = spec.label
		labels[spec.label] = true
	}

	// The label set a scrape exposes is exactly the table's.
	reg := obs.NewRegistry()
	newServerMetrics(reg)
	var page bytes.Buffer
	if err := reg.WriteText(&page); err != nil {
		t.Fatal(err)
	}
	scraped := map[string]bool{}
	for _, m := range regexp.MustCompile(`hidb_server_op_seconds[a-z_]*\{op="([^"]+)"`).FindAllStringSubmatch(page.String(), -1) {
		scraped[m[1]] = true
	}
	for l := range labels {
		if !scraped[l] {
			t.Errorf("label %q has a row but no hidb_server_op_seconds series", l)
		}
	}
	for l := range scraped {
		if !labels[l] {
			t.Errorf("scrape exposes op=%q, which no row carries", l)
		}
	}

	// And the doc's opcode-label table lists exactly the rows.
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(Op[A-Za-z]+)` \\| `([a-z_]+)` \\|").FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = m[2]
	}
	for name, label := range rows {
		if documented[name] != label {
			t.Errorf("docs/OBSERVABILITY.md lists %s as %q, the table says %q", name, documented[name], label)
		}
	}
	for name := range documented {
		if _, ok := rows[name]; !ok {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which has no row", name)
		}
	}
}
