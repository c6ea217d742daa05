// Package pgo turns a path profile (local, merged, or fetched from a
// pathprofd fleet) into a layout Plan — one superblock ordering per
// function — as a report of what a native backend would do with it. The
// dominant overlapping path becomes the fall-through spine, cold blocks
// move out-of-line past the hot window, and caller-determined callee
// branches (the branch-correlation application) orient toward their proven
// direction. No engine executes the plan: in the switch-dispatched register
// machine a taken jump is one pc store, so reordering blocks saves no
// dispatch (DESIGN.md §16 records the measurement). `pathprof -pgo` prints
// the plan and `GET /v1/pgo` serves the profile bytes it derives from.
//
// Derivation runs the stages named by Stages (DESIGN.md §16 documents
// them, enforced by docscheck): bl-heat accumulates intra-procedural edge
// heat from decoded BL paths, loop-spine adds the cross-backedge heat of
// decoded overlap routes, branch-orient adds proven interprocedural
// branch flow, chain greedily grows fall-through chains from each
// function's entry, and cold-tail appends never-executed blocks in id
// order.
package pgo

import (
	"encoding/json"
	"fmt"
	"io"

	"pathprof/internal/profile"
)

// Profile is the input to plan derivation: the counters of one run (or a
// fleet merge) plus the degree they were collected at. core.LoadRun output
// maps onto it directly.
type Profile struct {
	// K is the overlap degree of the counters (-1 = BL only).
	K int
	// Counters holds the profile's counter maps.
	Counters *profile.Counters
}

// FuncLayout is one function's derived superblock ordering.
type FuncLayout struct {
	// Func is the program function index.
	Func int `json:"func"`
	// Name is the function's name (for human consumption; Func is
	// authoritative).
	Name string `json:"name"`
	// Order is a permutation of the function's block ids in emission
	// order; Order[0] is always the entry block.
	Order []int `json:"order"`
	// Hot is the number of leading Order entries placed by profile
	// signal; Order[Hot:] is the cold tail in block-id order.
	Hot int `json:"hot"`
}

// Identity reports whether the layout leaves the function's block order
// unchanged.
func (fl *FuncLayout) Identity() bool {
	for i, b := range fl.Order {
		if b != i {
			return false
		}
	}
	return true
}

// Plan is a whole-program layout plan, one FuncLayout per function in
// program index order.
type Plan struct {
	// K echoes the degree of the profile the plan was derived from.
	K int `json:"k"`
	// Funcs holds one layout per program function, in index order.
	Funcs []FuncLayout `json:"funcs"`
}

// Reordered counts functions whose layout differs from block-id order.
func (p *Plan) Reordered() int {
	n := 0
	for i := range p.Funcs {
		if !p.Funcs[i].Identity() {
			n++
		}
	}
	return n
}

// Encode writes the plan as indented JSON. Equal plans encode to
// byte-identical output (field order is fixed by the struct), which the
// determinism tests rely on.
func (p *Plan) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// DecodePlan reads a plan previously written by Encode.
func DecodePlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("pgo: decode plan: %w", err)
	}
	return &p, nil
}

// Stages names the plan-derivation stages in pipeline order. DESIGN.md
// §16's stage table must list exactly these names (docscheck enforces the
// match in both directions).
func Stages() []string {
	return []string{"bl-heat", "loop-spine", "branch-orient", "chain", "cold-tail"}
}
