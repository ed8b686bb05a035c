package engine

// Corruption matrix for Restore: a checkpoint that was truncated, bit
// flipped, version-bumped, or hand-tampered must come back as a descriptive
// error — or, for flips that happen to keep the JSON coherent, a successful
// restore — but NEVER a panic. The matrix sweeps both failure families the
// hardening defends: structural damage the validators catch up front, and
// semantic damage (out-of-range indices, impossible shapes) the recover
// guard backstops.

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
)

// checkpointBytes runs a short stream and snapshots it.
func checkpointBytes(t *testing.T, shards int) []byte {
	t.Helper()
	for name, in := range churnBackends(t) {
		if name != "grid" {
			continue
		}
		e, err := New(ckConfig(t, in, shards, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayWith(e, in, ReplayOpts{Until: in.Periods / 2}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	t.Fatal("no grid backend")
	return nil
}

// restoreNoPanic feeds corrupt bytes to a fresh engine and demands
// error-or-success. The recover guards in Restore convert panics into
// errors; this asserts nothing slips past them and unwinds the test.
func restoreNoPanic(t *testing.T, shards int, in *market.Instance, data []byte) error {
	t.Helper()
	e, err := New(ckConfig(t, in, shards, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	return e.Restore(bytes.NewReader(data))
}

func TestRestoreCorruptionMatrix(t *testing.T) {
	in := churnBackends(t)["grid"]
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(modeName(shards)[1:], func(t *testing.T) {
			ck := checkpointBytes(t, shards)
			if len(ck) < 200 {
				t.Fatalf("checkpoint implausibly small: %d bytes", len(ck))
			}

			t.Run("truncations", func(t *testing.T) {
				step := len(ck)/40 + 1
				for cut := 0; cut < len(ck); cut += step {
					if err := restoreNoPanic(t, shards, in, ck[:cut]); err == nil {
						t.Fatalf("restore of a %d/%d-byte prefix succeeded", cut, len(ck))
					}
				}
			})

			t.Run("bit-flips", func(t *testing.T) {
				step := len(ck)/60 + 1
				for off := 0; off < len(ck); off += step {
					for _, bit := range []byte{0x01, 0x20, 0x80} {
						mut := bytes.Clone(ck)
						mut[off] ^= bit
						// Error or success both fine; a panic fails the test.
						_ = restoreNoPanic(t, shards, in, mut)
					}
				}
			})

			t.Run("wrong-version", func(t *testing.T) {
				mut := bytes.Replace(ck, []byte(`"version":1`), []byte(`"version":99`), 1)
				if bytes.Equal(mut, ck) {
					t.Fatal("version field not found in checkpoint")
				}
				err := restoreNoPanic(t, shards, in, mut)
				if err == nil || !strings.Contains(err.Error(), "version") {
					t.Fatalf("want a version error, got %v", err)
				}
			})

			t.Run("cell-out-of-range", func(t *testing.T) {
				loc := regexp.MustCompile(`"cell":\d+`).FindIndex(ck)
				if loc == nil {
					t.Fatal("no strategy cell found in checkpoint")
				}
				mut := append(append(bytes.Clone(ck[:loc[0]]), `"cell":1000000`...), ck[loc[1]:]...)
				err := restoreNoPanic(t, shards, in, mut)
				cells := fmt.Sprintf("%d cells", in.Spatial().NumCells())
				if err == nil || !strings.Contains(err.Error(), "cell 1000000") || !strings.Contains(err.Error(), cells) {
					t.Fatalf("want an out-of-range cell error naming the cell and the space's %s, got %v", cells, err)
				}
			})

			t.Run("not-json", func(t *testing.T) {
				if err := restoreNoPanic(t, shards, in, []byte("\x00\x01garbage")); err == nil {
					t.Fatal("restore of garbage bytes succeeded")
				}
			})
		})
	}
}

// TestRestoreCorruptPendingPairs targets the semantic validator directly:
// a checkpoint whose pending-batch pairing indices point outside the task
// and worker tables must be rejected by the bounds check, not crash the
// pairing rebuild.
func TestRestoreCorruptPendingPairs(t *testing.T) {
	build := func() *Engine {
		e, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: &fixedPrice{price: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := build()
	mustSubmit(t, e,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 10, Duration: 100}),
		TaskArrival(market.Task{ID: 100, Origin: geo.Point{X: 11, Y: 11}, Distance: 3}),
		Tick(1),                   // quote the batch
		AcceptDecision(100, true), // provisional assignment -> pending pairs
	)
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	_ = e.Close()

	// Tamper with the raw bytes (a JSON round-trip through float64 would
	// mangle the 64-bit partition fingerprint and trip a different
	// validator): rewrite the pending pairings to out-of-range indices.
	pairsRe := regexp.MustCompile(`"pairs":\[\[\d+,\d+\]`)
	mut := pairsRe.ReplaceAll(buf.Bytes(), []byte(`"pairs":[[9999,9999]`))
	if bytes.Equal(mut, buf.Bytes()) {
		t.Fatal("checkpoint holds no pending pairs to tamper with")
	}

	fresh := build()
	defer fresh.Close()
	err := fresh.Restore(bytes.NewReader(mut))
	if err == nil {
		t.Fatal("restore accepted out-of-range pending pairings")
	}
	if !strings.Contains(err.Error(), "9999") {
		t.Fatalf("error %q does not name the bad index", err)
	}
}
