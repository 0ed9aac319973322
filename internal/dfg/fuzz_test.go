package dfg

import (
	"strconv"
	"strings"
	"testing"
)

// parseTable decodes the fuzz target's text form of a call table, one call
// per line: "name;role;type;in,in;out,out;batchScale;miniBatches". Any
// string decodes: missing fields are empty, type is a CallType number, and
// unparsable numbers are 0. At most 32 calls are read.
func parseTable(s string) []Call {
	var calls []Call
	for i, line := range strings.Split(s, "\n") {
		if i == 32 {
			break
		}
		f := strings.Split(line, ";")
		for len(f) < 7 {
			f = append(f, "")
		}
		typ, _ := strconv.Atoi(f[2])
		scale, _ := strconv.Atoi(f[5])
		mb, _ := strconv.Atoi(f[6])
		calls = append(calls, Call{
			Name: f[0], Role: Role(f[1]), Type: CallType(typ),
			Inputs: keys(f[3]), Outputs: keys(f[4]),
			BatchScale: scale, MiniBatches: mb,
		})
	}
	return calls
}

func keys(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// FuzzLower lowers arbitrary wiring — forward references, self-inputs,
// unknown keys, cycles, duplicate producers, hostile per-call numbers — and
// checks that Lower never panics and that every graph it returns is a DAG
// holding each call exactly once per iteration, in table order. The corpus
// under testdata/fuzz/FuzzLower seeds it with the paper tables and the
// public RPC presets. Sizes stay small: this target covers wiring, not the
// problem-size budget.
func FuzzLower(f *testing.F) {
	f.Add("a;actor;0;;x\nb;actor;2;x,y;y", 2)
	f.Fuzz(func(t *testing.T, table string, iters int) {
		calls := parseTable(table)
		iters = 1 + (iters&0xff)%3
		g, err := Lower("fuzz", calls, Spec{Batch: 64, PromptLen: 16, GenLen: 16, Iterations: iters})
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Lower returned an invalid graph: %v", err)
		}
		if len(g.Nodes) != len(calls)*iters {
			t.Fatalf("%d nodes for %d calls × %d iterations", len(g.Nodes), len(calls), iters)
		}
		for it := 0; it < iters; it++ {
			nodes := g.CallsOfIter(it)
			if len(nodes) != len(calls) {
				t.Fatalf("iteration %d has %d calls, want %d", it, len(nodes), len(calls))
			}
			for i, n := range nodes {
				if c := calls[i]; n.Name != c.Name || n.Role != c.Role || n.Type != c.Type {
					t.Fatalf("iteration %d call %d is %s/%s/%v, want %s/%s/%v",
						it, i, n.Name, n.Role, n.Type, c.Name, c.Role, c.Type)
				}
			}
		}
	})
}
