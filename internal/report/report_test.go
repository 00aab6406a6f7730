package report

import (
	"strings"
	"testing"

	"github.com/actfort/actfort/internal/authproc"
	"github.com/actfort/actfort/internal/collect"
	"github.com/actfort/actfort/internal/core"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Headers: []string{"a", "bbbb"},
	}
	tbl.AddRow("xxxxx", "y")
	tbl.AddRow("z", "w")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a    ") {
		t.Errorf("header not padded: %q", lines[1])
	}
	if !strings.Contains(lines[2], "-----") {
		t.Errorf("separator missing: %q", lines[2])
	}
	if len(lines) != 5 {
		t.Errorf("lines = %d want 5", len(lines))
	}
}

func TestPctAndBar(t *testing.T) {
	if Pct(54.0107) != "54.01%" {
		t.Errorf("Pct = %q", Pct(54.0107))
	}
	if got := Bar(50); !strings.HasPrefix(got, "[###############") {
		t.Errorf("Bar(50) = %q", got)
	}
	if Bar(-5) != "["+strings.Repeat(".", 30)+"]" {
		t.Errorf("Bar(-5) = %q", Bar(-5))
	}
	if Bar(200) != "["+strings.Repeat("#", 30)+"]" {
		t.Errorf("Bar(200) = %q", Bar(200))
	}
}

func TestPaperRenderersOnCalibratedData(t *testing.T) {
	cat := dataset.MustDefault()
	web := collect.Measure(cat, ecosys.PlatformWeb)
	mob := collect.Measure(cat, ecosys.PlatformMobile)
	t1 := Table1(web, mob).String()
	// The calibrated catalog must reprint the paper's exact numbers.
	for _, want := range []string{"54.01%", "87.50%", "11.76%", "75.00%", "59.36%"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}

	aw := authproc.Measure(cat, ecosys.PlatformWeb)
	am := authproc.Measure(cat, ecosys.PlatformMobile)
	f3 := Fig3(aw, am)
	for _, want := range []string{"auth paths", "208", "197", "sms-code", "SMS-only"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Fig3 missing %q", want)
		}
	}

	engine, err := core.New(cat, ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	m, err := engine.Measure()
	if err != nil {
		t.Fatal(err)
	}
	layers := Layers(m.WebLayers, m.MobileLayers).String()
	for _, want := range []string{"74.13%", "75.56%", "direct", "couples"} {
		if !strings.Contains(layers, want) {
			t.Errorf("Layers missing %q:\n%s", want, layers)
		}
	}
	dom := Domains(m.Domains).String()
	if !strings.Contains(dom, "fintech") || !strings.Contains(dom, "email") {
		t.Errorf("Domains table incomplete:\n%s", dom)
	}
}
