package fault_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestDisabledCheckIsNil(t *testing.T) {
	fault.Disable()
	if fault.Enabled() {
		t.Fatal("injector reported enabled after Disable")
	}
	for i := 0; i < 100; i++ {
		if err := fault.Check("any.site"); err != nil {
			t.Fatalf("disabled Check returned %v", err)
		}
	}
}

func TestErrorRuleFiresAndCounts(t *testing.T) {
	inj := fault.NewInjector(1, fault.Rule{Site: "a.b", Kind: fault.KindError})
	restore := fault.Enable(inj)
	defer restore()

	if err := fault.Check("a.b"); !fault.Injected(err) {
		t.Fatalf("want injected error, got %v", err)
	}
	if err := fault.Check("a.other"); err != nil {
		t.Fatalf("unmatched site got %v", err)
	}
	cov := inj.Coverage()
	if cov["a.b"].Visits != 1 || cov["a.b"].Fires != 1 {
		t.Fatalf("a.b coverage = %+v", cov["a.b"])
	}
	if cov["a.other"].Visits != 1 || cov["a.other"].Fires != 0 {
		t.Fatalf("a.other coverage = %+v", cov["a.other"])
	}
}

func TestPrefixMatchAndLimit(t *testing.T) {
	inj := fault.NewInjector(2, fault.Rule{Site: "s.store.*", Kind: fault.KindError, Limit: 2})
	restore := fault.Enable(inj)
	defer restore()

	got := 0
	for _, site := range []string{"s.store.load", "s.store.save", "s.store.load", "s.cache.get"} {
		if fault.Injected(fault.Check(site)) {
			got++
		}
	}
	if got != 2 {
		t.Fatalf("limit 2 rule fired %d times", got)
	}
}

func TestProbabilisticRuleIsDeterministic(t *testing.T) {
	run := func() []bool {
		inj := fault.NewInjector(42, fault.Rule{Site: "p", Kind: fault.KindError, Prob: 0.5})
		restore := fault.Enable(inj)
		defer restore()
		out := make([]bool, 64)
		for i := range out {
			out[i] = fault.Injected(fault.Check("p"))
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at visit %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("prob 0.5 fired %d/%d times", fires, len(a))
	}
}

func TestPanicRule(t *testing.T) {
	inj := fault.NewInjector(3, fault.Rule{Site: "boom", Kind: fault.KindPanic})
	restore := fault.Enable(inj)
	defer restore()

	defer func() {
		r := recover()
		pv, ok := r.(fault.PanicValue)
		if !ok || pv.Site != "boom" {
			t.Fatalf("recovered %v", r)
		}
	}()
	_ = fault.Check("boom")
	t.Fatal("no panic")
}

func TestLatencyRule(t *testing.T) {
	inj := fault.NewInjector(4, fault.Rule{Site: "slow", Kind: fault.KindLatency, Latency: 5 * time.Millisecond})
	restore := fault.Enable(inj)
	defer restore()

	start := time.Now()
	if err := fault.Check("slow"); err != nil {
		t.Fatalf("latency rule returned %v", err)
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Fatalf("latency rule returned too fast (%v)", time.Since(start))
	}
}

func TestFSForPassthroughWhenDisabled(t *testing.T) {
	fault.Disable()
	fs := fault.FSFor("t")
	dir := t.TempDir()
	if err := fs.WriteFile(filepath.Join(dir, "x"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile(filepath.Join(dir, "x"))
	if err != nil || string(b) != "hello" {
		t.Fatalf("roundtrip: %q, %v", b, err)
	}
}

func TestFSPartialWrite(t *testing.T) {
	inj := fault.NewInjector(5, fault.Rule{Site: "t.write", Kind: fault.KindPartialWrite})
	restore := fault.Enable(inj)
	defer restore()

	fs := fault.FSFor("t")
	dir := t.TempDir()
	f, err := fs.CreateTemp(dir, "tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	n, err := f.Write(payload)
	if !fault.Injected(err) {
		t.Fatalf("want torn write, got n=%d err=%v", n, err)
	}
	if n >= len(payload) {
		t.Fatalf("partial write kept all %d bytes", n)
	}
	f.Close()
	st, err := os.Stat(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(n) {
		t.Fatalf("on-disk size %d != reported %d", st.Size(), n)
	}
}

func TestFSErrorSites(t *testing.T) {
	inj := fault.NewInjector(6,
		fault.Rule{Site: "t.read", Kind: fault.KindError},
		fault.Rule{Site: "t.rename", Kind: fault.KindError},
	)
	restore := fault.Enable(inj)
	defer restore()

	fs := fault.FSFor("t")
	if _, err := fs.ReadFile("nope"); !fault.Injected(err) {
		t.Fatalf("read: %v", err)
	}
	if err := fs.Rename("a", "b"); !fault.Injected(err) {
		t.Fatalf("rename: %v", err)
	}
	// Unmatched ops pass through to the real filesystem.
	if _, err := fs.ReadDir("definitely-missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("readdir passthrough: %v", err)
	}
}

func TestCoverageSummary(t *testing.T) {
	inj := fault.NewInjector(7, fault.Rule{Site: "x", Kind: fault.KindError})
	restore := fault.Enable(inj)
	defer restore()
	_ = fault.Check("x")
	_ = fault.Check("y")
	s := inj.Coverage().Summary()
	if !strings.Contains(s, "x") || !strings.Contains(s, "fires=1") {
		t.Fatalf("summary missing data:\n%s", s)
	}
}

// BenchmarkCheckDisabled documents the zero-overhead claim: with no
// injector installed, Check is one atomic load.
func BenchmarkCheckDisabled(b *testing.B) {
	fault.Disable()
	for i := 0; i < b.N; i++ {
		if err := fault.Check("bench.site"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckEnabledMiss measures an installed injector whose rules
// never match the visited site.
func BenchmarkCheckEnabledMiss(b *testing.B) {
	inj := fault.NewInjector(8, fault.Rule{Site: "other", Kind: fault.KindError})
	restore := fault.Enable(inj)
	defer restore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fault.Check("bench.site")
	}
}
