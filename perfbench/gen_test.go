package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ebid"
	"repro/internal/workload"
)

func TestCheckBody(t *testing.T) {
	for _, tc := range []struct {
		op, query, body string
		ok              bool
	}{
		{ebid.ViewItem, "item=42", "<html>item 42: lamp, max bid 1.00, 3 bids</html>", true},
		{ebid.ViewItem, "item=42", "<html>item 4: lamp, max bid 1.00, 3 bids</html>", false},
		{ebid.ViewItem, "item=4", "<html>item 42: lamp</html>", false},
		{ebid.BrowseCategories, "", "<html>20 categories</html>", true},
		{ebid.BrowseCategories, "", "<html>Exception in servlet</html>", false},
		{ebid.AboutMe, "", "<html>lookup failed</html>", false},
		{ebid.OpHome, "", "<html>internal ERROR</html>", false},
	} {
		got := checkBody(tc.op, tc.query, []byte(tc.body))
		if (got == "") != tc.ok {
			t.Errorf("checkBody(%s?%s, %q) = %q", tc.op, tc.query, tc.body, got)
		}
	}
}

func TestSourcesAreSeeded(t *testing.T) {
	for _, mk := range []func(seed int64) source{
		func(seed int64) source { return newZipfReads(seed, 50, 250, 3300) },
		func(seed int64) source { return newTable1Walk(seed, 50, 250, 3300) },
	} {
		draw := func(seed int64) string {
			s := mk(seed)
			var b strings.Builder
			for k := 0; k < 500; k++ {
				vu, op, q, nv := s.next(k)
				b.WriteString(strings.Join([]string{string(rune('a' + vu%26)), op, q, map[bool]string{true: "v"}[nv]}, "|"))
			}
			return b.String()
		}
		if draw(3) != draw(3) {
			t.Error("the same seed gave different requests")
		}
		if draw(3) == draw(4) {
			t.Error("different seeds gave the same requests")
		}
	}
}

func TestEncodeArgs(t *testing.T) {
	req := &workload.Request{Args: &ebid.OpArgs{Item: 9, Amount: 77, Rating: -2, HasRating: true}}
	if got, want := encodeArgs(req), "item=9&amount=77.0&rating=-2"; got != want {
		t.Errorf("encodeArgs = %q, want %q", got, want)
	}
	if got := encodeArgs(&workload.Request{}); got != "" {
		t.Errorf("no args encoded as %q", got)
	}
}

func TestEventWindows(t *testing.T) {
	t0 := time.Unix(100, 0)
	evs := []event{
		{kind: "urb", at: t0, ended: t0.Add(500 * time.Millisecond)},
		{kind: "restart", at: t0.Add(5 * time.Second), ended: t0.Add(7 * time.Second)},
	}
	if ev := eventOf(evs, t0.Add(time.Second)); ev == nil || ev.kind != "urb" {
		t.Error("a failure inside the microreboot's grace was not attributed to it")
	}
	if ev := eventOf(evs, t0.Add(3*time.Second)); ev != nil {
		t.Errorf("a failure between events was attributed to %v", ev.kind)
	}
	if ev := eventOf(evs, t0.Add(8*time.Second)); ev == nil || ev.kind != "restart" {
		t.Error("a failure after the respawn, within grace, was not attributed to the restart")
	}
	if ev := eventOf(evs, t0.Add(-time.Millisecond)); ev != nil {
		t.Error("a failure before any event was attributed to one")
	}
}

func TestFlowStepTables(t *testing.T) {
	for _, first := range flowSteps {
		if !firstSteps[first] {
			t.Errorf("%s opens a flow but is not in firstSteps", first)
		}
	}
	if len(firstSteps) != len(flowSteps) {
		t.Errorf("%d first steps for %d flows", len(firstSteps), len(flowSteps))
	}
}

// scripted is a source replaying a fixed request list, one virtual user
// per request unless vu is set.
type scripted []struct {
	vu        int
	op, query string
}

func (s scripted) next(k int) (int, string, string, bool) {
	r := s[k%len(s)]
	return r.vu, r.op, r.query, false
}

// TestGeneratorIsCrashOnly drives the generator against a server that
// sheds with 503 + Retry-After once and lapses a session once: both
// requests must end in success, be marked affected, and the shed one
// must carry its wait in its latency.
func TestGeneratorIsCrashOnly(t *testing.T) {
	var mu sync.Mutex
	shed, lapsed, logins := false, false, 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		c, _ := r.Cookie("EBIDSESSION")
		switch r.URL.Path {
		case "/ebid/" + ebid.Authenticate:
			logins++
			http.SetCookie(w, &http.Cookie{Name: "EBIDSESSION", Value: "s" + strconv.Itoa(logins)})
			fmt.Fprintln(w, "<html>welcome</html>")
		case "/ebid/" + ebid.ViewItem:
			if !shed {
				shed = true
				w.Header().Set("Retry-After", "1")
				http.Error(w, "recovering", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintf(w, "<html>item %s: lamp</html>\n", r.URL.Query().Get("item"))
		case "/ebid/" + ebid.AboutMe:
			if c == nil || !lapsed {
				lapsed = true
				http.Error(w, "session lapsed", http.StatusUnauthorized)
				return
			}
			fmt.Fprintln(w, "<html>about you</html>")
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	src := scripted{
		{0, ebid.Authenticate, "user=3"},
		{1, ebid.ViewItem, "item=7"},
		{0, ebid.AboutMe, ""},
		{2, ebid.ViewItem, "item=8"},
	}
	g := &gen{base: srv.URL, rate: 200, start: time.Now(), n: len(src), conns: 2,
		pop: newPopulation(src, 3), drain: 10 * time.Second}
	res := g.run()
	for i, r := range res {
		if !r.ok || r.violation != "" {
			t.Errorf("request %d (%s) failed: status %d %s", i, r.op, r.status, r.violation)
		}
	}
	if !res[1].affected || res[1].done.Sub(res[1].due) < time.Second {
		t.Errorf("shed request: affected=%v latency %v, want affected and ≥ its 1 s Retry-After",
			res[1].affected, res[1].done.Sub(res[1].due))
	}
	if !res[2].affected || logins != 2 {
		t.Errorf("lapsed request: affected=%v after %d logins, want affected and a second login", res[2].affected, logins)
	}
	if res[0].affected || res[3].affected {
		t.Error("undisturbed requests were marked affected")
	}
}
