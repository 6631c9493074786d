package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func readFixture(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestParseFixture parses real `go test -bench . -benchmem` output of
// the root and internal/obs packages, run at GOMAXPROCS=2.
func TestParseFixture(t *testing.T) {
	base, err := parse(strings.NewReader(readFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	if base.GoOS != "linux" || base.GoArch != "amd64" || base.GoMaxProc != 2 {
		t.Fatalf("header goos=%q goarch=%q gomaxprocs=%d", base.GoOS, base.GoArch, base.GoMaxProc)
	}
	if len(base.Benches) != 78 {
		t.Fatalf("%d rows, want 78", len(base.Benches))
	}
	rows := make(map[string]Entry)
	for _, e := range base.Benches {
		rows[e.Name] = e
	}
	want := []Entry{
		{Name: "BenchmarkTable1/k2-pi", NsPerOp: 2925385, Iters: 1, BytesOp: 907792, AllocsOp: 6202,
			Metrics: map[string]float64{"paper-bound": 1.286, "radius/lmax": 1}},
		{Name: "BenchmarkMST/delaunay/n=4000", NsPerOp: 8737805, Iters: 1, BytesOp: 1570080, AllocsOp: 125},
		{Name: "BenchmarkObsSpan/traced", NsPerOp: 4432, Iters: 1, BytesOp: 280, AllocsOp: 5},
	}
	for _, w := range want {
		if got := rows[w.Name]; !reflect.DeepEqual(got, w) {
			t.Errorf("row %s:\n got %+v\nwant %+v", w.Name, got, w)
		}
	}
	for _, name := range []string{
		"BenchmarkPlanner/grid",
		"BenchmarkEngine/store-hit/n=2000",
		"BenchmarkInstanceChurn/repair/wal=interval/n=2000",
		"BenchmarkInstanceRecovery/n=2000/revs=64",
		"BenchmarkRepairScaling/bats/full/n=20000",
		"BenchmarkSolveScaling/cover/n=1000000",
		"BenchmarkHistogramObserve",
	} {
		if _, ok := rows[name]; !ok {
			t.Errorf("row %s missing", name)
		}
	}
}

// TestParseNoSuffix: go test appends no -N suffix at GOMAXPROCS=1.
func TestParseNoSuffix(t *testing.T) {
	in := "BenchmarkX/n=10   \t 5\t 100.5 ns/op\t 8 B/op\t 1 allocs/op\n"
	base, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if base.GoMaxProc != 1 || len(base.Benches) != 1 || base.Benches[0].Name != "BenchmarkX/n=10" || base.Benches[0].NsPerOp != 100.5 {
		t.Fatalf("parsed %+v", base)
	}
}

func TestParseRejects(t *testing.T) {
	fixture := readFixture(t)
	row := "BenchmarkHistogramObserve-2   \t       1\t      1502 ns/op\t       0 B/op\t       0 allocs/op\n"
	for _, tc := range []struct {
		name, in, want string
	}{
		{"failed benchmark", fixture + "BenchmarkBroken-2   \t--- FAIL: BenchmarkBroken-2\n", "failed"},
		{"failed package", strings.Replace(fixture, "ok  \trepro/internal/obs", "FAIL\trepro/internal/obs", 1), "failed"},
		{"empty input", "", "no benchmark rows"},
		{"no rows", "goos: linux\ngoarch: amd64\nPASS\n", "no benchmark rows"},
		{"duplicate row", fixture + row, "duplicate"},
		{"mixed suffixes", fixture + strings.Replace(row, "Observe-2", "Observe2-4", 1), "GOMAXPROCS"},
		{"missing suffix", fixture + strings.Replace(row, "Observe-2", "Observe2", 1), "GOMAXPROCS"},
		{"no -benchmem columns", "BenchmarkX-2   \t 5\t 100 ns/op\n", "-benchmem"},
		{"malformed row", "BenchmarkX-2   \t 5\t 100 ns/op\t 8\n", "malformed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestRecordWritesNothingOnError: a failed parse leaves no output file.
func TestRecordWritesNothingOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := record(strings.NewReader(readFixture(t)+"--- FAIL: BenchmarkX\n"), path); err == nil {
		t.Fatal("record accepted a failed run")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("output file exists after a failed parse (stat err %v)", err)
	}
	if err := record(strings.NewReader(readFixture(t)), path); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(path)
	if err != nil || len(base.Benches) != 78 {
		t.Fatalf("round trip: %d rows, err %v", len(base.Benches), err)
	}
}

// TestCheckFleet: the committed trajectory (fleet/v1 rows without a
// server block included) validates, and a fleet/v2 row must carry the
// server-side /orient view.
func TestCheckFleet(t *testing.T) {
	committed := filepath.Join("..", "..", "BENCH_fleet.json")
	if err := checkFleet(committed); err != nil {
		t.Fatalf("committed BENCH_fleet.json: %v", err)
	}
	data, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	v1 := rows[0]
	if v1["schema"] != "fleet/v1" || v1["server"] != nil {
		t.Fatalf("first committed row is not a server-less fleet/v1 row: schema %v", v1["schema"])
	}
	orient := map[string]any{"count": 100, "p50_ms": 0.01, "p99_ms": 1}
	for _, c := range []struct {
		name   string
		server any
		ok     bool
	}{
		{"v2 without server", nil, false},
		{"v2 without orient", map[string]any{"churn": orient}, false},
		{"v2 with orient", map[string]any{"orient": orient}, true},
	} {
		row := make(map[string]any, len(v1)+1)
		for k, v := range v1 {
			row[k] = v
		}
		row["schema"] = "fleet/v2"
		if c.server != nil {
			row["server"] = c.server
		}
		out, err := json.Marshal([]any{row})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fleet.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkFleet(path); (err == nil) != c.ok {
			t.Errorf("%s: checkFleet err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
