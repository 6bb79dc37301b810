package misketch

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

// TestBenchRankRows keeps the performance trajectory comparable: every
// row of BENCH_rank.json is one JSON object (JSONL) naming the change
// it measured, the benchmark, and the machine it ran on — rows are only
// ever compared within one machine, so a row without its CPU and
// GOMAXPROCS is not evidence of anything.
func TestBenchRankRows(t *testing.T) {
	f, err := os.Open("BENCH_rank.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	rows := 0
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row struct {
			PR         *int    `json:"pr"`
			Bench      *string `json:"bench"`
			GOMAXPROCS *int    `json:"gomaxprocs"`
			CPU        *string `json:"cpu"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("line %d is not a JSON object: %v", line, err)
		}
		switch {
		case row.PR == nil || *row.PR <= 0:
			t.Errorf("line %d: missing or invalid pr", line)
		case row.Bench == nil || *row.Bench == "":
			t.Errorf("line %d: missing bench", line)
		case row.GOMAXPROCS == nil || *row.GOMAXPROCS <= 0:
			t.Errorf("line %d: missing or invalid gomaxprocs", line)
		case row.CPU == nil || *row.CPU == "":
			t.Errorf("line %d: missing cpu", line)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("BENCH_rank.json has no rows")
	}
}
