package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathprof/internal/cluster"
	"pathprof/internal/pgo"
	"pathprof/internal/profstore"
	"pathprof/internal/regvm"
	"pathprof/internal/server"
)

// goodDesign synthesizes a §12 documenting exactly the exported names.
func goodDesign() string {
	var b strings.Builder
	b.WriteString("## 11. Aggregation service\n\n| endpoint | behavior |\n|---|---|\n")
	for _, e := range server.Endpoints {
		fmt.Fprintf(&b, "| `%s` | ... |\n", e)
	}
	b.WriteString("\n## 12. Observability\n\n")
	b.WriteString("| stage | meaning |\n|---|---|\n")
	for _, s := range server.SpanStages {
		fmt.Fprintf(&b, "| `%s` | ... |\n", s)
	}
	b.WriteString("\n| metric | unit |\n|---|---|\n")
	for _, m := range server.HistogramMetricNames {
		fmt.Fprintf(&b, "| `%s` | ms |\n", m)
	}
	b.WriteString("\n## 13. Two-iteration window\n\n")
	b.WriteString("## 14. Cluster\n\nRing uses `cluster.DefaultVnodes` vnodes.\n\n")
	b.WriteString("| endpoint | behavior |\n|---|---|\n")
	for _, e := range cluster.Endpoints {
		fmt.Fprintf(&b, "| `%s` | ... |\n", e)
	}
	b.WriteString("\n| stage | meaning |\n|---|---|\n")
	for _, s := range cluster.SpanStages {
		fmt.Fprintf(&b, "| `%s` | ... |\n", s)
	}
	b.WriteString("\n## 15. Register engine\n\n| mnemonic | fuses |\n|---|---|\n")
	for _, s := range regvm.Superinstructions() {
		fmt.Fprintf(&b, "| `%s` | ... |\n", s)
	}
	b.WriteString("\n## 16. Profile-guided layout\n\n| stage | charges |\n|---|---|\n")
	for _, s := range pgo.Stages() {
		fmt.Fprintf(&b, "| `%s` | ... |\n", s)
	}
	return b.String()
}

// goodFormat synthesizes a FORMAT.md whose token registry lists exactly the
// exported on-disk tokens.
func goodFormat() string {
	var b strings.Builder
	b.WriteString("# On-disk format\n\nVersioned by `profstore.FormatVersion`.\n\n")
	b.WriteString("## Format token registry\n\n| token | meaning |\n|---|---|\n")
	for _, tok := range profstore.FormatTokens() {
		fmt.Fprintf(&b, "| `%s` | ... |\n", tok)
	}
	b.WriteString("\n## Prose\n\nFree-form text, tables here are unchecked.\n")
	return b.String()
}

func TestCheckFormatAccepts(t *testing.T) {
	if got := CheckFormat(goodFormat()); len(got) != 0 {
		t.Fatalf("complaints on a faithful format doc:\n%s", strings.Join(got, "\n"))
	}
}

func TestCheckFormatCatchesDrift(t *testing.T) {
	// Dropping the version token is the canonical drift: the doc describes
	// v1 while the code writes v2.
	vtok := fmt.Sprintf("| `v%d` | ... |\n", profstore.FormatVersion)
	missing := strings.Replace(goodFormat(), vtok, "", 1)
	got := CheckFormat(missing)
	if len(got) != 1 || !strings.Contains(got[0], fmt.Sprintf(`"v%d" is undocumented`, profstore.FormatVersion)) {
		t.Fatalf("dropped version token not caught: %v", got)
	}

	missing = strings.Replace(goodFormat(), "| `"+profstore.OpInstall+"` | ... |\n", "", 1)
	got = CheckFormat(missing)
	if len(got) != 1 || !strings.Contains(got[0], `"`+profstore.OpInstall+`" is undocumented`) {
		t.Fatalf("dropped op token not caught: %v", got)
	}

	stale := strings.Replace(goodFormat(), "\n## Prose", "| `seg-v0-` | gone |\n\n## Prose", 1)
	got = CheckFormat(stale)
	if len(got) != 1 || !strings.Contains(got[0], `"seg-v0-"`) {
		t.Fatalf("stale documented token not caught: %v", got)
	}

	unnamed := strings.Replace(goodFormat(), "`profstore.FormatVersion`", "some constant", 1)
	got = CheckFormat(unnamed)
	if len(got) != 1 || !strings.Contains(got[0], "profstore.FormatVersion") {
		t.Fatalf("dropped version constant not caught: %v", got)
	}

	if got := CheckFormat("# No registry\n"); len(got) != 1 || !strings.Contains(got[0], "Format token registry") {
		t.Fatalf("missing registry section not caught: %v", got)
	}
}

func TestCheckDesignAccepts(t *testing.T) {
	if got := CheckDesign(goodDesign()); len(got) != 0 {
		t.Fatalf("complaints on a faithful design doc:\n%s", strings.Join(got, "\n"))
	}
}

func TestCheckDesignCatchesDrift(t *testing.T) {
	missing := strings.Replace(goodDesign(), "| `merge_ms` | ms |\n", "", 1)
	got := CheckDesign(missing)
	if len(got) != 1 || !strings.Contains(got[0], `metric "merge_ms" is undocumented`) {
		t.Fatalf("dropped metric not caught: %v", got)
	}

	stale := strings.Replace(goodDesign(), "## 13. Two-iteration window",
		"| `old_stage_name` | gone |\n\n## 13. Two-iteration window", 1)
	got = CheckDesign(stale)
	if len(got) != 1 || !strings.Contains(got[0], `"old_stage_name"`) {
		t.Fatalf("stale documented name not caught: %v", got)
	}

	if got := CheckDesign("## 1. Intro\n"); len(got) != 1 || !strings.Contains(got[0], "no section 12") {
		t.Fatalf("missing section not caught: %v", got)
	}
}

func TestCheckServiceAccepts(t *testing.T) {
	if got := CheckService(goodDesign()); len(got) != 0 {
		t.Fatalf("complaints on a faithful §11:\n%s", strings.Join(got, "\n"))
	}
}

func TestCheckServiceCatchesDrift(t *testing.T) {
	missing := strings.Replace(goodDesign(), "| `POST /v1/chunks` | ... |\n", "", 1)
	got := CheckService(missing)
	if len(got) != 1 || !strings.Contains(got[0], `endpoint "POST /v1/chunks" is undocumented`) {
		t.Fatalf("dropped endpoint not caught: %v", got)
	}

	stale := strings.Replace(goodDesign(), "\n## 12. Observability",
		"| `GET /v1/jobs/{id}/poll` | gone |\n\n## 12. Observability", 1)
	got = CheckService(stale)
	if len(got) != 1 || !strings.Contains(got[0], `"GET /v1/jobs/{id}/poll"`) {
		t.Fatalf("stale documented route not caught: %v", got)
	}

	if got := CheckService("## 1. Intro\n"); len(got) != 1 || !strings.Contains(got[0], "no section 11") {
		t.Fatalf("missing section not caught: %v", got)
	}
}

func TestCheckClusterAccepts(t *testing.T) {
	if got := CheckCluster(goodDesign()); len(got) != 0 {
		t.Fatalf("complaints on a faithful §14:\n%s", strings.Join(got, "\n"))
	}
}

func TestCheckClusterCatchesDrift(t *testing.T) {
	missing := strings.Replace(goodDesign(), "| `POST /v1/cluster/join` | ... |\n", "", 1)
	got := CheckCluster(missing)
	if len(got) != 1 || !strings.Contains(got[0], `endpoint "POST /v1/cluster/join" is undocumented`) {
		t.Fatalf("dropped endpoint not caught: %v", got)
	}

	missing = strings.Replace(goodDesign(), "| `fleetpush` | ... |\n", "", 1)
	got = CheckCluster(missing)
	if len(got) != 1 || !strings.Contains(got[0], `stage "fleetpush" is undocumented`) {
		t.Fatalf("dropped stage not caught: %v", got)
	}

	stale := strings.Replace(goodDesign(), "## 15. Register engine",
		"| `DELETE /v1/everything` | gone |\n\n## 15. Register engine", 1)
	got = CheckCluster(stale)
	if len(got) != 1 || !strings.Contains(got[0], `"DELETE /v1/everything"`) {
		t.Fatalf("stale documented route not caught: %v", got)
	}

	unnamed := strings.Replace(goodDesign(), "`cluster.DefaultVnodes`", "some vnodes", 1)
	got = CheckCluster(unnamed)
	if len(got) != 1 || !strings.Contains(got[0], "cluster.DefaultVnodes") {
		t.Fatalf("dropped vnode constant not caught: %v", got)
	}

	if got := CheckCluster("## 1. Intro\n"); len(got) != 1 || !strings.Contains(got[0], "no section 14") {
		t.Fatalf("missing section not caught: %v", got)
	}
}

func TestCheckEngineAccepts(t *testing.T) {
	if got := CheckEngine(goodDesign()); len(got) != 0 {
		t.Fatalf("complaints on a faithful §15:\n%s", strings.Join(got, "\n"))
	}
}

func TestCheckEngineCatchesDrift(t *testing.T) {
	missing := strings.Replace(goodDesign(), "| `BranchProbe` | ... |\n", "", 1)
	got := CheckEngine(missing)
	if len(got) != 1 || !strings.Contains(got[0], `superinstruction "BranchProbe" is undocumented`) {
		t.Fatalf("dropped mnemonic not caught: %v", got)
	}

	stale := strings.Replace(goodDesign(), "\n## 16.", "| `MegaFuse` | gone |\n\n## 16.", 1)
	got = CheckEngine(stale)
	if len(got) != 1 || !strings.Contains(got[0], `"MegaFuse"`) {
		t.Fatalf("stale documented mnemonic not caught: %v", got)
	}

	if got := CheckEngine("## 1. Intro\n"); len(got) != 1 || !strings.Contains(got[0], "no section 15") {
		t.Fatalf("missing section not caught: %v", got)
	}
}

func TestCheckPGOAccepts(t *testing.T) {
	if got := CheckPGO(goodDesign()); len(got) != 0 {
		t.Fatalf("complaints on a faithful §16:\n%s", strings.Join(got, "\n"))
	}
}

func TestCheckPGOCatchesDrift(t *testing.T) {
	missing := strings.Replace(goodDesign(), "| `loop-spine` | ... |\n", "", 1)
	got := CheckPGO(missing)
	if len(got) != 1 || !strings.Contains(got[0], `pgo stage "loop-spine" is undocumented`) {
		t.Fatalf("dropped stage not caught: %v", got)
	}

	stale := goodDesign() + "| `block-shuffle` | gone |\n"
	got = CheckPGO(stale)
	if len(got) != 1 || !strings.Contains(got[0], `"block-shuffle"`) {
		t.Fatalf("stale documented stage not caught: %v", got)
	}

	if got := CheckPGO("## 1. Intro\n"); len(got) != 1 || !strings.Contains(got[0], "no section 16") {
		t.Fatalf("missing section not caught: %v", got)
	}
}

func TestSnapshotHistogramTagsMatchExportedNames(t *testing.T) {
	tags := SnapshotHistogramTags()
	if len(tags) != len(server.HistogramMetricNames) {
		t.Fatalf("MetricsSnapshot has %d histogram fields, HistogramMetricNames lists %d",
			len(tags), len(server.HistogramMetricNames))
	}
	want := map[string]bool{}
	for _, n := range server.HistogramMetricNames {
		want[n] = true
	}
	for _, tag := range tags {
		if !want[tag] {
			t.Errorf("histogram JSON tag %q not in HistogramMetricNames", tag)
		}
	}
}

func TestCheckLinks(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "docs", "OPS.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	md := filepath.Join(dir, "README.md")
	content := "[ops](docs/OPS.md) [sec](docs/OPS.md#queue) [ext](https://example.com/x) [frag](#local) [gone](docs/MISSING.md)"
	if err := os.WriteFile(md, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got := CheckLinks([]string{md})
	if len(got) != 1 || !strings.Contains(got[0], "docs/MISSING.md") {
		t.Fatalf("want exactly the one broken link flagged, got: %v", got)
	}
	if got := CheckLinks([]string{filepath.Join(dir, "NOPE.md")}); len(got) != 1 {
		t.Fatalf("unreadable file not flagged: %v", got)
	}
}

// TestRepoDocsPass pins the real documentation set: DESIGN.md §§11–16 must
// match the exported names and no checked document may carry a broken
// relative link.
func TestRepoDocsPass(t *testing.T) {
	raw, err := os.ReadFile("../../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if got := CheckService(string(raw)); len(got) != 0 {
		t.Errorf("DESIGN.md §11 drift:\n%s", strings.Join(got, "\n"))
	}
	if got := CheckDesign(string(raw)); len(got) != 0 {
		t.Errorf("DESIGN.md drift:\n%s", strings.Join(got, "\n"))
	}
	if got := CheckCluster(string(raw)); len(got) != 0 {
		t.Errorf("DESIGN.md §14 drift:\n%s", strings.Join(got, "\n"))
	}
	if got := CheckEngine(string(raw)); len(got) != 0 {
		t.Errorf("DESIGN.md §15 drift:\n%s", strings.Join(got, "\n"))
	}
	if got := CheckPGO(string(raw)); len(got) != 0 {
		t.Errorf("DESIGN.md §16 drift:\n%s", strings.Join(got, "\n"))
	}
	fraw, err := os.ReadFile("../../../docs/FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	if got := CheckFormat(string(fraw)); len(got) != 0 {
		t.Errorf("docs/FORMAT.md drift:\n%s", strings.Join(got, "\n"))
	}
	files := []string{"../../../README.md", "../../../DESIGN.md", "../../../EXPERIMENTS.md", "../../../ROADMAP.md"}
	docs, _ := filepath.Glob("../../../docs/*.md")
	files = append(files, docs...)
	if got := CheckLinks(files); len(got) != 0 {
		t.Errorf("broken links:\n%s", strings.Join(got, "\n"))
	}
}
