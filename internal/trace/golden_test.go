package trace

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pathprof/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current tracer")

// goldenRow is one map entry of a tracer output: its key as a tuple of
// integers and its count.
type goldenRow struct {
	key []int64
	n   uint64
}

// goldenSection renders rows under name, sorted by key tuple.
func goldenSection(b *strings.Builder, name string, rows []goldenRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, c := rows[i].key, rows[j].key
		for k := range a {
			if a[k] != c[k] {
				return a[k] < c[k]
			}
		}
		return false
	})
	for _, r := range rows {
		b.WriteString(name)
		for _, v := range r.key {
			fmt.Fprintf(b, " %d", v)
		}
		fmt.Fprintf(b, " %d\n", r.n)
	}
}

// goldenText renders every recorded tracer output — BL, LoopAdj,
// LoopChain, T1, T2, Calls and Attr — one entry a line, each section in
// key order.
func goldenText(tr *Tracer) []byte {
	var b strings.Builder
	var rows []goldenRow
	for f, prof := range tr.BL {
		for id, n := range prof {
			rows = append(rows, goldenRow{[]int64{int64(f), id}, n})
		}
	}
	goldenSection(&b, "BL", rows)
	rows = rows[:0]
	for k, n := range tr.LoopAdj {
		rows = append(rows, goldenRow{[]int64{int64(k.Func), int64(k.Loop), k.A, k.B}, n})
	}
	goldenSection(&b, "LoopAdj", rows)
	rows = rows[:0]
	for k, n := range tr.LoopChain {
		key := []int64{int64(k.Func), int64(k.Loop), k.Base, int64(k.N)}
		rows = append(rows, goldenRow{append(key, k.Succ[:]...), n})
	}
	goldenSection(&b, "LoopChain", rows)
	rows = rows[:0]
	for k, n := range tr.T1 {
		rows = append(rows, goldenRow{[]int64{int64(k.Caller), int64(k.Site), int64(k.Callee), k.Prefix, k.Q}, n})
	}
	goldenSection(&b, "T1", rows)
	rows = rows[:0]
	for k, n := range tr.T2 {
		rows = append(rows, goldenRow{[]int64{int64(k.Caller), int64(k.Site), int64(k.Callee), k.Q, k.CallerPath}, n})
	}
	goldenSection(&b, "T2", rows)
	rows = rows[:0]
	for k, n := range tr.Calls {
		rows = append(rows, goldenRow{[]int64{int64(k.Caller), int64(k.Site), int64(k.Callee)}, n})
	}
	goldenSection(&b, "Calls", rows)
	fmt.Fprintf(&b, "Attr %d %d %d\n", tr.Attr.Total, tr.Attr.LoopOnly, tr.Attr.Proc)
	return []byte(b.String())
}

// TestGoldenTracerOutputs pins every tracer output of the bundled programs
// at their bundled seeds, byte for byte. Regenerate the files with
// `go test ./internal/trace -run TestGoldenTracerOutputs -update` only when
// a change of the tracer's semantics is intended.
func TestGoldenTracerOutputs(t *testing.T) {
	for _, wb := range workload.All() {
		wb := wb
		t.Run(wb.Name, func(t *testing.T) {
			_, tr, _ := runTraced(t, wb.Source, wb.Seed, false)
			got := goldenText(tr)
			path := filepath.Join("testdata", wb.Name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s line %d: got %q, want %q", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
		})
	}
}
