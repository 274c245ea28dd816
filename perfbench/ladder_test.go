package main

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/ebid"
)

// cannedServer answers each request on one connection with the next of
// replies (cycling) and records the Cookie header it was sent. It
// allocates nothing per request, so a client's allocations show alone.
func cannedServer(t *testing.T, replies [][]byte, cookies chan<- string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r := bufio.NewReader(c)
		for i := 0; ; i++ {
			cookie := ""
			for {
				line, err := r.ReadSlice('\n')
				if err != nil {
					return
				}
				if v, ok := bytes.CutPrefix(line, []byte("Cookie: ")); ok && cookies != nil {
					cookie = string(bytes.TrimSpace(v))
				}
				if len(bytes.TrimSpace(line)) == 0 {
					break
				}
			}
			if cookies != nil {
				cookies <- cookie
			}
			if _, err := c.Write(replies[i%len(replies)]); err != nil {
				return
			}
		}
	}()
	return "http://" + ln.Addr().String()
}

func TestConnParsesResponses(t *testing.T) {
	replies := [][]byte{
		[]byte("HTTP/1.1 200 OK\r\nSet-Cookie: EBIDSESSION=abc123; Path=/; HttpOnly\r\nContent-Length: 5\r\n\r\nhello"),
		[]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\na\r\n0123456789\r\n0\r\n\r\n"),
		[]byte("HTTP/1.1 503 Service Unavailable\r\nretry-after: 2\r\ncontent-length: 11\r\n\r\nrecovering\n"),
		[]byte("HTTP/1.1 204 No Content\r\n\r\n"),
	}
	cookies := make(chan string, 8)
	c := &conn{addr: strings.TrimPrefix(cannedServer(t, replies, cookies), "http://")}
	defer c.close()
	for i, want := range []struct {
		sendCookie string
		status     int
		body       string
		retry      time.Duration
		setCookie  string
	}{
		{"", 200, "hello", 0, "abc123"},
		{"abc123", 200, "abc0123456789", 0, ""},
		{"", 503, "recovering\n", 2 * time.Second, ""},
		{"x", 204, "", 0, ""},
	} {
		status, body, retry, set, err := c.get("/ebid/ViewItem?item=1", []byte(want.sendCookie), 0)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if status != want.status || string(body) != want.body || retry != want.retry || string(set) != want.setCookie {
			t.Errorf("request %d: got %d %q retry %v cookie %q, want %d %q retry %v cookie %q",
				i, status, body, retry, set, want.status, want.body, want.retry, want.setCookie)
		}
		wantSent := ""
		if want.sendCookie != "" {
			wantSent = "EBIDSESSION=" + want.sendCookie
		}
		if got := <-cookies; got != wantSent {
			t.Errorf("request %d sent cookie %q, want %q", i, got, wantSent)
		}
	}
}

func TestConnAllocatesNothingPerRequest(t *testing.T) {
	replies := [][]byte{
		[]byte("HTTP/1.1 200 OK\r\nSet-Cookie: EBIDSESSION=abc123; Path=/\r\nContent-Length: 5\r\n\r\nhello"),
		[]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"),
	}
	c := &conn{addr: strings.TrimPrefix(cannedServer(t, replies, nil), "http://")}
	defer c.close()
	cookie := []byte("abc123")
	allocs := testing.AllocsPerRun(500, func() {
		if _, _, _, _, err := c.get("/ebid/ViewItem?item=1", cookie, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("conn.get allocates %.2f times per request, want 0", allocs)
	}
}

func TestAtoi(t *testing.T) {
	for _, tc := range []struct {
		in   string
		base int
		want int
	}{
		{"123", 10, 123}, {"1a", 16, 26}, {"FF", 16, 255}, {"1a", 10, -1}, {"", 10, -1}, {"0", 16, 0},
	} {
		if got := atoi([]byte(tc.in), tc.base); got != tc.want {
			t.Errorf("atoi(%q, %d) = %d, want %d", tc.in, tc.base, got, tc.want)
		}
	}
}

// TestReadSharesFollowEmulator checks read-hot's mix against the
// branch weights of the Table 1 emulator (internal/workload/client.go):
// read-only DB access 0.46 of browsing steps, split BrowseCategories
// 0.22, BrowseRegions 0.10, ViewItem 0.34, ViewUserInfo 0.12,
// ViewBidHistory 0.10 and AboutMe 0.12; searches 0.19, split 0.6 by
// category and 0.4 by region. AboutMe is left out and the rest
// renormalised.
func TestReadSharesFollowEmulator(t *testing.T) {
	weights := map[string]float64{
		ebid.BrowseCategories:      0.46 * 0.22,
		ebid.BrowseRegions:         0.46 * 0.10,
		ebid.ViewItem:              0.46 * 0.34,
		ebid.ViewUserInfo:          0.46 * 0.12,
		ebid.ViewBidHistory:        0.46 * 0.10,
		ebid.SearchItemsByCategory: 0.19 * 0.6,
		ebid.SearchItemsByRegion:   0.19 * 0.4,
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	shares := readShares()
	if len(shares) != len(weights) {
		t.Fatalf("read-hot mixes %d operations, want %d: %v", len(shares), len(weights), shares)
	}
	prev := 0.0
	for _, s := range shares {
		want, ok := weights[s.op]
		if !ok {
			t.Errorf("read-hot sends %s, which is not a read-only or search operation", s.op)
			continue
		}
		if got := s.upTo - prev; math.Abs(got-want/total) > 0.01 {
			t.Errorf("share of %s is %.4f, the emulator gives %.4f", s.op, got, want/total)
		}
		prev = s.upTo
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Errorf("shares end at %v, want 1", prev)
	}
}
