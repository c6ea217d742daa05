// Command docscheck keeps the documentation and the code from drifting
// apart. It fails the build when:
//
//   - DESIGN.md §11's endpoint table drifts from the routes a daemon serves
//     (server.Endpoints — both directions),
//   - a span stage or histogram metric name documented in DESIGN.md §12
//     differs from what internal/server exports (server.SpanStages,
//     server.HistogramMetricNames, and MetricsSnapshot's histogram JSON
//     tags — checked verbatim, in both directions),
//   - DESIGN.md §14 drifts from the cluster surface (the routes a
//     coordinator serves, cluster.Endpoints, the coordinator span stages in
//     cluster.SpanStages — both directions — or the cluster.DefaultVnodes
//     ring constant),
//   - DESIGN.md §15's fusion-rule table drifts from the superinstructions
//     the register engine emits (regvm.Superinstructions — both
//     directions),
//   - DESIGN.md §16's stage table drifts from the profile-guided layout
//     derivation (pgo.Stages — both directions),
//   - docs/FORMAT.md's token registry drifts from the persistent profile
//     store's on-disk format (profstore.FormatTokens, the format version
//     included — both directions), or
//   - any relative markdown link in the checked documents points at a file
//     that does not exist.
//
// CI runs it from the repository root as part of the docs-lint job:
//
//	go run ./internal/tools/docscheck
//
// Flags: -design overrides the DESIGN.md path, -format the docs/FORMAT.md
// path; positional arguments override the default linked-document set
// (README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md, docs/*.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	design := flag.String("design", "DESIGN.md", "path to the design document")
	format := flag.String("format", "docs/FORMAT.md", "path to the on-disk format document")
	flag.Parse()

	raw, err := os.ReadFile(*design)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	complaints := CheckService(string(raw))
	complaints = append(complaints, CheckDesign(string(raw))...)
	complaints = append(complaints, CheckCluster(string(raw))...)
	complaints = append(complaints, CheckEngine(string(raw))...)
	complaints = append(complaints, CheckPGO(string(raw))...)

	fraw, err := os.ReadFile(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	complaints = append(complaints, CheckFormat(string(fraw))...)

	files := flag.Args()
	if len(files) == 0 {
		files = []string{"README.md", *design, "EXPERIMENTS.md", "ROADMAP.md"}
		docs, _ := filepath.Glob("docs/*.md")
		files = append(files, docs...)
	}
	complaints = append(complaints, CheckLinks(files)...)

	for _, c := range complaints {
		fmt.Println(c)
	}
	if len(complaints) > 0 {
		os.Exit(1)
	}
}
