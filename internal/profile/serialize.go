package profile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file gives Counters a stable on-disk form, so two-phase workflows
// (profile once, pick placements or selections, profile again — or estimate
// offline) can run across processes. The format is line-oriented JSON: a
// header record followed by one record per counter, sorted for
// reproducibility.

// serializedHeader identifies the format.
type serializedHeader struct {
	Format   string `json:"format"`
	Version  int    `json:"version"`
	NumFuncs int    `json:"numFuncs"`
}

const (
	formatName    = "pathprof-counters"
	formatVersion = 1
)

// Serialize writes the counters in the stable line-JSON form: the canonical
// Records flattening (one shared sort key; see records.go) encoded one
// record per line.
func (c *Counters) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(serializedHeader{Format: formatName, Version: formatVersion, NumFuncs: len(c.BL)}); err != nil {
		return err
	}
	for _, r := range c.Records() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCounters deserializes counters written by Serialize. A header or
// record with a field Serialize never writes — such as the iters of a
// multi-iteration window or the ext2/full2 of its second crossing — is
// refused, not folded into the two-iteration keys its other fields spell.
func ReadCounters(r io.Reader) (*Counters, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	dec.DisallowUnknownFields()
	var hdr serializedHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("profile: reading header: %w", err)
	}
	if hdr.Format != formatName {
		return nil, fmt.Errorf("profile: unknown format %q", hdr.Format)
	}
	if hdr.Version != formatVersion {
		return nil, fmt.Errorf("profile: unsupported version %d", hdr.Version)
	}
	if hdr.NumFuncs < 0 || hdr.NumFuncs > 1<<20 {
		return nil, fmt.Errorf("profile: implausible function count %d", hdr.NumFuncs)
	}
	c := NewCounters(hdr.NumFuncs)
	for n := 1; ; n++ {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			// The 1-based record index makes a blame string from a
			// replaying store actionable: it names the exact line that
			// broke, not just that a line did.
			return nil, fmt.Errorf("profile: reading record %d: %w", n, err)
		}
		switch rec.Kind {
		case "bl":
			if rec.Func < 0 || rec.Func >= hdr.NumFuncs {
				return nil, fmt.Errorf("profile: bl record for function %d of %d", rec.Func, hdr.NumFuncs)
			}
			c.BL[rec.Func][rec.Path] += rec.N
		case "loop":
			c.Loop[LoopKey{Func: rec.Func, Loop: rec.Loop, Base: rec.Base, Ext: rec.Ext, Full: rec.Full}] += rec.N
		case "t1":
			c.TypeI[TypeIKey{Caller: rec.Caller, Site: rec.Site, Callee: rec.Callee, Prefix: rec.Prefix, Ext: rec.Ext}] += rec.N
		case "t2":
			c.TypeII[TypeIIKey{Caller: rec.Caller, Site: rec.Site, Callee: rec.Callee, Path: rec.Path, Ext: rec.Ext}] += rec.N
		case "call":
			c.Calls[CallKey{Caller: rec.Caller, Site: rec.Site, Callee: rec.Callee}] += rec.N
		default:
			return nil, fmt.Errorf("profile: unknown record kind %q", rec.Kind)
		}
	}
	return c, nil
}

// CheckRecords checks every counter record of c against info's program, as
// a boundary that receives counters from outside the process must before
// folding or serving them: c's function count is the program's, and each
// record names a function below it, a loop or call site the named function
// has, and Ball-Larus path ids (a BL record's path, a loop record's base, a
// Type II record's callee path) below the function's path count. The first
// fault is reported.
func (info *Info) CheckRecords(c *Counters) error {
	nf := len(info.Funcs)
	if len(c.BL) != nf {
		return fmt.Errorf("counters carry %d functions, the program has %d", len(c.BL), nf)
	}
	fn := func(kind string, f int) error {
		if f < 0 || f >= nf {
			return fmt.Errorf("%s record names function %d of %d", kind, f, nf)
		}
		return nil
	}
	path := func(kind string, f int, id int64) error {
		if n := info.Funcs[f].DAG.Total(); id < 0 || id >= n {
			return fmt.Errorf("%s record names path %d of %d in %s", kind, id, n, info.Funcs[f].Fn.Name)
		}
		return nil
	}
	site := func(kind string, caller, s, callee int) error {
		if err := fn(kind, caller); err != nil {
			return err
		}
		if err := fn(kind, callee); err != nil {
			return err
		}
		if n := len(info.Funcs[caller].CallSites); s < 0 || s >= n {
			return fmt.Errorf("%s record names call site %d of %d in %s", kind, s, n, info.Funcs[caller].Fn.Name)
		}
		return nil
	}
	for f, m := range c.BL {
		for id := range m {
			if err := path("bl", f, id); err != nil {
				return err
			}
		}
	}
	for k := range c.Loop {
		if err := fn("loop", k.Func); err != nil {
			return err
		}
		fi := info.Funcs[k.Func]
		if k.Loop < 0 || k.Loop >= len(fi.Loops) {
			return fmt.Errorf("loop record names loop %d of %d in %s", k.Loop, len(fi.Loops), fi.Fn.Name)
		}
		if err := path("loop", k.Func, k.Base); err != nil {
			return err
		}
	}
	for k := range c.TypeI {
		if err := site("t1", k.Caller, k.Site, k.Callee); err != nil {
			return err
		}
	}
	for k := range c.TypeII {
		if err := site("t2", k.Caller, k.Site, k.Callee); err != nil {
			return err
		}
		if err := path("t2", k.Callee, k.Path); err != nil {
			return err
		}
	}
	for k := range c.Calls {
		if err := site("call", k.Caller, k.Site, k.Callee); err != nil {
			return err
		}
	}
	return nil
}
