package cogdiff

import (
	"testing"
)

func TestParseCompilerSpec(t *testing.T) {
	cases := []struct {
		spec string
		want []string
		err  bool
	}{
		{"", []string{"native", "simple", "stacktoregister", "registerallocating"}, false},
		{"+metajit", []string{"native", "simple", "stacktoregister", "registerallocating", "metajit"}, false},
		{"simple,metajit", []string{"simple", "metajit"}, false},
		{" simple , metajit ", []string{"simple", "metajit"}, false},
		{"+metajit,+metajit", []string{"native", "simple", "stacktoregister", "registerallocating", "metajit"}, false},
		{"simple,+metajit", nil, true},
		{"bogus", nil, true},
	}
	for _, c := range cases {
		got, err := ParseCompilerSpec(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseCompilerSpec(%q): expected error, got %v", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCompilerSpec(%q): %v", c.spec, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseCompilerSpec(%q) = %v, want %v", c.spec, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseCompilerSpec(%q)[%d] = %q, want %q", c.spec, i, got[i], c.want[i])
			}
		}
	}
}

func TestParseSequenceCompilerSpec(t *testing.T) {
	got, err := ParseSequenceCompilerSpec("+metajit")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"simple", "stacktoregister", "registerallocating", "metajit"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := ParseSequenceCompilerSpec("native,simple"); err == nil {
		t.Fatal("native accepted for sequence fuzzing")
	}
	if _, err := ParseSequenceCompilerSpec("+native"); err == nil {
		t.Fatal("+native accepted for sequence fuzzing")
	}
}

// TestMetaJITCampaignByteIdentity is the fifth compiler's determinism
// contract, checked on the full campaign: with the meta-compiled
// front-end in the set, the stable report surface must be byte-identical
// at any worker count. This is the same contract the four hand-written
// compilers honour — the derived front-end must not introduce
// scheduling-dependent behaviour.
func TestMetaJITCampaignByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-compiler campaign matrix; run without -short")
	}
	compilers, err := ParseCompilerSpec("+metajit")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		t.Helper()
		sum, err := RunCampaign(CampaignOptions{Compilers: compilers, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return sum.StableReport()
	}

	baseline := run(1)
	if baseline == "" {
		t.Fatal("empty stable report")
	}
	for _, workers := range []int{4, 0} {
		if got := run(workers); got != baseline {
			t.Errorf("workers=%d: stable report diverged from the serial run", workers)
		}
	}
}

// TestMetaJITCampaignRowPresent pins that an opted-in metajit campaign
// actually tests instructions under the fifth compiler and reports them
// as a Table 2 row.
func TestMetaJITCampaignRowPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-compiler campaign; run without -short")
	}
	sum, err := RunCampaign(CampaignOptions{Compilers: []string{CompilerSimple, CompilerMetaJIT}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 2 {
		t.Fatalf("expected 2 campaign rows, got %d", len(sum.Rows))
	}
	meta := sum.Rows[1]
	if meta.Compiler != "Meta-compiled BC Compiler" {
		t.Fatalf("second row is %q, want the meta-compiled front-end", meta.Compiler)
	}
	if meta.Instructions == 0 || meta.Curated == 0 {
		t.Fatalf("metajit row tested nothing: %+v", meta)
	}
}
