package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"

	"pathprof/internal/cluster"
	"pathprof/internal/obs"
	"pathprof/internal/pgo"
	"pathprof/internal/profstore"
	"pathprof/internal/regvm"
	"pathprof/internal/server"
)

// sectionRe matches a numbered DESIGN.md section heading ("## 12. ...").
var sectionRe = regexp.MustCompile(`(?m)^## (\d+)\.`)

// Section extracts the body of numbered section num from a DESIGN.md-style
// document (from its "## num." heading to the next "## " heading or EOF).
func Section(md string, num int) (string, error) {
	matches := sectionRe.FindAllStringSubmatchIndex(md, -1)
	for i, m := range matches {
		if md[m[2]:m[3]] == fmt.Sprint(num) {
			end := len(md)
			if i+1 < len(matches) {
				end = matches[i+1][0]
			}
			return md[m[0]:end], nil
		}
	}
	return "", fmt.Errorf("no section %d", num)
}

// tableNameRe matches a table row whose first cell is a single backticked
// token: "| `name` | ...".
var tableNameRe = regexp.MustCompile("(?m)^\\|\\s*`([^`]+)`\\s*\\|")

// TableNames returns every backticked first-column token of every markdown
// table row in text, in order of appearance.
func TableNames(text string) []string {
	var out []string
	for _, m := range tableNameRe.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// SnapshotHistogramTags returns the JSON tags of server.MetricsSnapshot's
// histogram-valued fields — the code-side truth the documented metric names
// must match.
func SnapshotHistogramTags() []string {
	var out []string
	rt := reflect.TypeOf(server.MetricsSnapshot{})
	ht := reflect.TypeOf(obs.HistogramSnapshot{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type != ht {
			continue
		}
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag != "" {
			out = append(out, tag)
		}
	}
	return out
}

// CheckDesign cross-references DESIGN.md's §12 tables against the code:
// the documented stage names must equal server.SpanStages and the
// documented metric names must equal both server.HistogramMetricNames and
// MetricsSnapshot's histogram JSON tags — all verbatim, in both directions,
// so a rename on either side fails the build.
func CheckDesign(md string) []string {
	sec, err := Section(md, 12)
	if err != nil {
		return []string{"DESIGN.md: " + err.Error()}
	}
	var out []string
	documented := TableNames(sec)
	stages := toSet(server.SpanStages)
	metrics := toSet(server.HistogramMetricNames)
	tags := toSet(SnapshotHistogramTags())

	for name := range metrics {
		if !tags[name] {
			out = append(out, fmt.Sprintf(
				"server.HistogramMetricNames has %q but MetricsSnapshot has no such histogram JSON tag", name))
		}
	}
	for name := range tags {
		if !metrics[name] {
			out = append(out, fmt.Sprintf(
				"MetricsSnapshot histogram tag %q missing from server.HistogramMetricNames", name))
		}
	}

	seen := toSet(documented)
	for _, name := range server.SpanStages {
		if !seen[name] {
			out = append(out, fmt.Sprintf("DESIGN.md §12: span stage %q is undocumented", name))
		}
	}
	for _, name := range server.HistogramMetricNames {
		if !seen[name] {
			out = append(out, fmt.Sprintf("DESIGN.md §12: metric %q is undocumented", name))
		}
	}
	for _, name := range documented {
		if !stages[name] && !metrics[name] {
			out = append(out, fmt.Sprintf(
				"DESIGN.md §12 documents %q but the code exports no such stage or metric", name))
		}
	}
	sort.Strings(out)
	return out
}

// CheckService cross-references DESIGN.md's §11 against internal/server:
// every route a daemon serves (server.Endpoints) must appear as a backticked
// table token, and no table may document a route the daemon does not
// serve. Adding a route without documenting it fails the build.
func CheckService(md string) []string {
	sec, err := Section(md, 11)
	if err != nil {
		return []string{"DESIGN.md: " + err.Error()}
	}
	var out []string
	documented := toSet(TableNames(sec))
	endpoints := toSet(server.Endpoints)
	for _, name := range server.Endpoints {
		if !documented[name] {
			out = append(out, fmt.Sprintf("DESIGN.md §11: endpoint %q is undocumented", name))
		}
	}
	for name := range documented {
		if !endpoints[name] {
			out = append(out, fmt.Sprintf(
				"DESIGN.md §11 documents %q but the daemon serves no such endpoint", name))
		}
	}
	sort.Strings(out)
	return out
}

// CheckCluster cross-references DESIGN.md's §14 against internal/cluster:
// every coordinator endpoint (cluster.Endpoints) and every coordinator span
// stage (cluster.SpanStages) must appear as a backticked table token, no
// table may document a route or stage the code does not export, and the
// section must name the `cluster.DefaultVnodes` ring constant. Adding an
// endpoint, renaming a stage, or changing the placement scheme without
// updating the design doc fails the build.
func CheckCluster(md string) []string {
	sec, err := Section(md, 14)
	if err != nil {
		return []string{"DESIGN.md: " + err.Error()}
	}
	var out []string
	documented := toSet(TableNames(sec))
	endpoints := toSet(cluster.Endpoints)
	stages := toSet(cluster.SpanStages)

	for _, name := range cluster.Endpoints {
		if !documented[name] {
			out = append(out, fmt.Sprintf("DESIGN.md §14: endpoint %q is undocumented", name))
		}
	}
	for _, name := range cluster.SpanStages {
		if !documented[name] {
			out = append(out, fmt.Sprintf("DESIGN.md §14: coordinator stage %q is undocumented", name))
		}
	}
	for name := range documented {
		if !endpoints[name] && !stages[name] {
			out = append(out, fmt.Sprintf(
				"DESIGN.md §14 documents %q but the cluster exports no such endpoint or stage", name))
		}
	}
	if !strings.Contains(sec, "`cluster.DefaultVnodes`") {
		out = append(out,
			"DESIGN.md §14 does not name the ring vnode constant `cluster.DefaultVnodes`")
	}
	sort.Strings(out)
	return out
}

// CheckEngine cross-references DESIGN.md's §15 fusion-rule table against
// the register engine: every superinstruction mnemonic the compiler emits
// (regvm.Superinstructions) must appear as a backticked first-column table
// token, and the table must not document a mnemonic the engine no longer
// exports. Adding, renaming, or dropping a fused opcode without updating
// the design doc fails the build.
func CheckEngine(md string) []string {
	sec, err := Section(md, 15)
	if err != nil {
		return []string{"DESIGN.md: " + err.Error()}
	}
	var out []string
	documented := toSet(TableNames(sec))
	fused := regvm.Superinstructions()
	exported := toSet(fused)

	for _, name := range fused {
		if !documented[name] {
			out = append(out, fmt.Sprintf("DESIGN.md §15: superinstruction %q is undocumented", name))
		}
	}
	for name := range documented {
		if !exported[name] {
			out = append(out, fmt.Sprintf(
				"DESIGN.md §15 documents %q but the register engine emits no such superinstruction", name))
		}
	}
	sort.Strings(out)
	return out
}

// CheckPGO cross-references DESIGN.md's §16 stage table against the
// profile-guided layout pipeline: every derivation stage pgo.Stages()
// reports must appear as a backticked first-column table token, and the
// table must not document a stage the derivation no longer runs. Adding,
// renaming, or dropping a stage without updating the design doc fails the
// build.
func CheckPGO(md string) []string {
	sec, err := Section(md, 16)
	if err != nil {
		return []string{"DESIGN.md: " + err.Error()}
	}
	var out []string
	documented := toSet(TableNames(sec))
	stages := pgo.Stages()
	exported := toSet(stages)

	for _, name := range stages {
		if !documented[name] {
			out = append(out, fmt.Sprintf("DESIGN.md §16: pgo stage %q is undocumented", name))
		}
	}
	for name := range documented {
		if !exported[name] {
			out = append(out, fmt.Sprintf(
				"DESIGN.md §16 documents %q but the pgo derivation runs no such stage", name))
		}
	}
	sort.Strings(out)
	return out
}

// CheckFormat cross-references docs/FORMAT.md against the persistent
// profile store: its "Format token registry" table must list exactly the
// tokens internal/profstore exports (profstore.FormatTokens — format names,
// the version tag, record ops, file-name affixes, recovery span stages),
// in both directions, and the document must name the
// `profstore.FormatVersion` constant. Changing any on-disk token — the
// version included — without updating the format doc fails the build.
func CheckFormat(md string) []string {
	const heading = "## Format token registry"
	idx := strings.Index(md, heading)
	if idx < 0 {
		return []string{fmt.Sprintf("docs/FORMAT.md: missing %q section", heading)}
	}
	sec := md[idx+len(heading):]
	if next := strings.Index(sec, "\n## "); next >= 0 {
		sec = sec[:next]
	}
	var out []string
	documented := toSet(TableNames(sec))
	tokens := profstore.FormatTokens()
	exported := toSet(tokens)
	for _, name := range tokens {
		if !documented[name] {
			out = append(out, fmt.Sprintf("docs/FORMAT.md: format token %q is undocumented", name))
		}
	}
	for name := range documented {
		if !exported[name] {
			out = append(out, fmt.Sprintf(
				"docs/FORMAT.md registry documents %q but internal/profstore exports no such token", name))
		}
	}
	if !strings.Contains(md, "`profstore.FormatVersion`") {
		out = append(out,
			"docs/FORMAT.md does not name the version constant `profstore.FormatVersion`")
	}
	sort.Strings(out)
	return out
}

// toSet builds a membership set from a slice.
func toSet(names []string) map[string]bool {
	s := make(map[string]bool, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// linkRe matches inline markdown links; images share the syntax and are
// checked the same way.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// CheckLinks verifies every relative link target in the given markdown
// files resolves to an existing file or directory. External (scheme-ful)
// and pure-fragment links are skipped; fragments on relative links are
// stripped before the existence check.
func CheckLinks(files []string) []string {
	var out []string
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				out = append(out, fmt.Sprintf("%s: broken link %q (%s does not exist)",
					file, m[1], resolved))
			}
		}
	}
	sort.Strings(out)
	return out
}
