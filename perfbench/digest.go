package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"zombie/internal/bandit"
	"zombie/internal/core"
)

// digest fingerprints a run's output: every curve point and every arm's
// final statistics, floats in their exact shortest form. Two runs with
// equal digests produced byte-identical curves and arms.
func digest(curve []core.CurvePoint, arms []bandit.ArmSnapshot) string {
	h := sha256.New()
	for _, p := range curve {
		fmt.Fprintf(h, "%d,%s,%d\n", p.Inputs, strconv.FormatFloat(p.Quality, 'g', -1, 64), int64(p.SimTime))
	}
	fmt.Fprintln(h, "arms")
	for _, a := range arms {
		fmt.Fprintf(h, "%d,%d,%s,%s\n", a.Arm, a.Pulls,
			strconv.FormatFloat(a.Mean, 'g', -1, 64), strconv.FormatFloat(a.Recent, 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// servedPoint is one learning-curve point as the service sends it.
type servedPoint struct {
	Inputs     int     `json:"inputs"`
	Quality    float64 `json:"quality"`
	SimSeconds float64 `json:"sim_seconds"`
}

// sameCurve reports where a served curve departs from the in-process
// reference, or nil when every point is identical.
func sameCurve(served []servedPoint, ref []core.CurvePoint) error {
	if len(served) != len(ref) {
		return fmt.Errorf("%d curve points, reference has %d", len(served), len(ref))
	}
	for i, p := range ref {
		want := servedPoint{Inputs: p.Inputs, Quality: p.Quality, SimSeconds: p.SimTime.Seconds()}
		if served[i] != want {
			return fmt.Errorf("curve point %d is %+v, reference %+v", i, served[i], want)
		}
	}
	return nil
}

// goldenJSON holds the committed digests of each workload's first cycle
// at the default seed and corpus size. Later changes cannot alter one of
// those curves without this check failing.
//
//go:embed golden.json
var goldenJSON []byte

// goldenFile is golden.json's layout: digests by key, valid for one
// workload seed and pair of corpus sizes.
type goldenFile struct {
	Seed    int64               `json:"seed"`
	WikiN   int                 `json:"wiki_n"`
	SongsN  int                 `json:"songs_n"`
	Digests map[string][]string `json:"digests"`
}

// goldens checks digests against the committed ones, or collects them
// for writing when updating.
type goldens struct {
	applies bool // the run's seed and corpus sizes match the file's
	update  bool
	file    goldenFile
}

func loadGoldens(o options, update bool) (*goldens, error) {
	g := &goldens{update: update}
	if err := json.Unmarshal(goldenJSON, &g.file); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if update {
		g.file = goldenFile{Seed: o.seed, WikiN: o.wikiN, SongsN: o.songsN, Digests: g.file.Digests}
		if g.file.Digests == nil {
			g.file.Digests = map[string][]string{}
		}
	}
	g.applies = g.file.Seed == o.seed && g.file.WikiN == o.wikiN && g.file.SongsN == o.songsN
	return g, nil
}

// check compares got with the committed digests under key, failing the
// report on a mismatch or a missing entry. It does nothing when the run's
// seed or corpus sizes differ from the file's.
func (g *goldens) check(rep *report, key string, got []string) {
	if !g.applies {
		return
	}
	if g.update {
		g.file.Digests[key] = got
		return
	}
	want, ok := g.file.Digests[key]
	if !ok {
		rep.failf("golden: no committed digests for %s", key)
		return
	}
	if len(want) != len(got) {
		rep.failf("golden: %s has %d digests, committed %d", key, len(got), len(want))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			rep.failf("golden: %s[%d] digest %s, committed %s", key, i, got[i], want[i])
		}
	}
}

// write saves the collected digests.
func (g *goldens) write(path string) error {
	data, err := json.MarshalIndent(g.file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
