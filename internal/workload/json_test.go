package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestJSONRoundTripSuite(t *testing.T) {
	for _, app := range Suite() {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, app); err != nil {
			t.Fatalf("%s: write: %v", app.Name, err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", app.Name, err)
		}
		if back.Name != app.Name || len(back.Loops) != len(app.Loops) {
			t.Fatalf("%s: identity lost", app.Name)
		}
		if back.NominalDuration() != app.NominalDuration() {
			t.Fatalf("%s: duration %v != %v", app.Name, back.NominalDuration(), app.NominalDuration())
		}
		for i, l := range app.Loops {
			for j, ph := range l.Body {
				got := back.Loops[i].Body[j]
				if got != ph {
					t.Fatalf("%s: loop %d phase %d changed:\n got %+v\nwant %+v", app.Name, i, j, got, ph)
				}
			}
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{`,
		"unknown field": `{"name":"X","loops":[],"bogus":1}`,
		"no phases":     `{"name":"X","loops":[]}`,
		"bad duration":  `{"name":"X","loops":[{"count":1,"body":[{"name":"p","flop_frac":0.1,"mem_frac":0.1,"compute_share":0.5,"overlap":0.3,"duration":"soon"}]}]}`,
		"bad shape":     `{"name":"X","loops":[{"count":1,"body":[{"name":"p","flop_frac":2,"mem_frac":0.1,"compute_share":0.5,"overlap":0.3,"duration":"1s"}]}]}`,
	}
	for name, doc := range cases {
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadJSONMinimal(t *testing.T) {
	doc := `{
	  "name": "mini",
	  "loops": [{"count": 2, "body": [{
	    "name": "mini.p",
	    "flop_frac": 0.1, "mem_frac": 0.5,
	    "compute_share": 0.6, "overlap": 0.4,
	    "bw_uncore_knee_ghz": 2.0,
	    "duration": "750ms"
	  }]}]
	}`
	app, err := ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if app.NominalDuration().Seconds() != 1.5 {
		t.Fatalf("duration = %v", app.NominalDuration())
	}
	if ghz := app.Loops[0].Body[0].BWUncoreKnee.GHz(); ghz != 2.0 {
		t.Fatalf("knee = %v GHz", ghz)
	}
}

func TestWriteJSONRejectsInvalidApp(t *testing.T) {
	if err := WriteJSON(&bytes.Buffer{}, App{}); err == nil {
		t.Fatal("serialised an invalid app")
	}
}

func TestReadJSONNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, CG()); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	for i := 0; i < 500; i++ {
		mutated := append([]byte(nil), doc...)
		// Flip a handful of random bytes.
		for j := 0; j < 1+rng.Intn(6); j++ {
			mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
		}
		// Must either parse to a valid app or fail cleanly — never panic.
		if app, err := ReadJSON(bytes.NewReader(mutated)); err == nil {
			if verr := app.Validate(); verr != nil {
				t.Fatalf("ReadJSON returned an invalid app: %v", verr)
			}
		}
	}
}

// FuzzAppJSON feeds arbitrary bytes to ReadJSON: it never panics, and
// an app it accepts is written by WriteJSON, whose bytes read and write
// back to themselves. One round trip may move a GHz knee by one ulp
// (GHz to Hz and back), so the fixed point is checked from the first
// write on.
func FuzzAppJSON(f *testing.F) {
	for _, app := range Suite() {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, app); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	phase := `{"name":"p","flop_frac":0.1,"mem_frac":0.5,"compute_share":0.6,"overlap":0.4,%s"duration":"750ms"}`
	for _, seed := range []string{
		`{"name":"knee","loops":[{"count":1,"body":[` + fmt.Sprintf(phase, `"bw_uncore_knee_ghz":1e300,`) + `]}]}`,
		`{"name":"zero","loops":[{"count":0,"body":[` + fmt.Sprintf(phase, "") + `]}]}`,
		`{"name":"negative","loops":[{"count":-3,"body":[` + fmt.Sprintf(phase, "") + `]}]}`,
		`null`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		app, err := ReadJSON(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var b1 bytes.Buffer
		if err := WriteJSON(&b1, app); err != nil {
			t.Fatalf("ReadJSON accepted an app WriteJSON cannot write: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON rejects WriteJSON's bytes: %v\n%s", err, b1.Bytes())
		}
		var b2 bytes.Buffer
		if err := WriteJSON(&b2, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("write(read(b1)) != b1:\n%s\n%s", b1.Bytes(), b2.Bytes())
		}
	})
}
