package pgo

import (
	"bytes"
	"reflect"
	"testing"
)

func TestPlanHelpers(t *testing.T) {
	p := &Plan{K: 1, Funcs: []FuncLayout{
		{Func: 0, Name: "main", Order: []int{0, 2, 1}, Hot: 2},
		{Func: 1, Name: "f", Order: []int{0, 1}, Hot: 0},
	}}
	if p.Funcs[0].Identity() {
		t.Error("reordered layout reported as identity")
	}
	if !p.Funcs[1].Identity() {
		t.Error("identity layout not reported as identity")
	}
	if got := p.Reordered(); got != 1 {
		t.Errorf("Reordered() = %d, want 1", got)
	}
}

func TestPlanEncodeRoundTrip(t *testing.T) {
	p := &Plan{K: 2, Funcs: []FuncLayout{
		{Func: 0, Name: "main", Order: []int{0, 3, 1, 2}, Hot: 3},
	}}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	back, err := DecodePlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip changed the plan: %+v vs %+v", p, back)
	}
	var buf2 bytes.Buffer
	if err := back.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("re-encoding a decoded plan changed its bytes")
	}
	if _, err := DecodePlan(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("DecodePlan accepted garbage")
	}
}

func TestStages(t *testing.T) {
	s := Stages()
	if len(s) != 5 {
		t.Fatalf("Stages() lists %d stages, want 5", len(s))
	}
	seen := map[string]bool{}
	for _, name := range s {
		if name == "" || seen[name] {
			t.Fatalf("stage name %q empty or duplicated", name)
		}
		seen[name] = true
	}
}
