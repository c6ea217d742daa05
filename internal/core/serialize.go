package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"pathprof/internal/limits"
	"pathprof/internal/profile"
)

// SaveRun persists a run — its degree and counters — so estimation can
// happen offline or in another process. The degree travels with the data
// because counter route-encodings are only meaningful relative to the
// degree-k extension numbering they were collected under.
func SaveRun(w io.Writer, run *Run) error {
	bw := bufio.NewWriter(w)
	hdr := struct {
		Format string `json:"format"`
		K      int    `json:"k"`
	}{Format: "pathprof-run", K: run.K}
	if err := json.NewEncoder(bw).Encode(hdr); err != nil {
		return err
	}
	if err := run.Counters.Serialize(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadRun reads a run written by SaveRun. A header naming a loop window
// width other than the paper's two iterations is refused (limits.Iters):
// its loop records would not be two-iteration keys.
func LoadRun(r io.Reader) (*Run, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("core: reading run header: %w", err)
	}
	var hdr struct {
		Format string `json:"format"`
		K      int    `json:"k"`
		Iters  int    `json:"iters"`
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("core: parsing run header: %w", err)
	}
	if hdr.Format != "pathprof-run" {
		return nil, fmt.Errorf("core: unknown run format %q", hdr.Format)
	}
	if err := limits.Iters(hdr.Iters); err != nil {
		return nil, fmt.Errorf("core: run header: %w", err)
	}
	c, err := profile.ReadCounters(br)
	if err != nil {
		return nil, err
	}
	return RunFromCounters(hdr.K, 2, c), nil
}
