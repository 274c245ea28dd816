package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/ebid"
)

// source yields the request for arrival k: the virtual user sending it,
// the operation and its query string. Calls come in k order, so a seeded
// source gives the same inputs on every run.
type source interface {
	next(k int) (vu int, op, query string, newVisit bool)
}

// vuState is one virtual user: its own cookie, whether it is logged in,
// and the open two-step flow it would have to redo after a session lapse.
// Only the worker holding the user's current request touches it.
type vuState struct {
	cookie      []byte
	established bool
	authUser    int64
	flowOp      string // first step of an open two-step flow
	flowQuery   string
	busy        bool    // guarded by gen.mu
	pending     []*item // guarded by gen.mu: arrivals queued behind the busy user
}

// population is the virtual users of one workload; it outlives a single
// generator run so sessions carry over from warm-up into timing.
type population struct {
	vus   []vuState
	src   source
	nextK int // arrivals drawn so far, across runs
}

func newPopulation(src source, vus int) *population {
	return &population{vus: make([]vuState, vus), src: src}
}

// item is one request on its way through the generator.
type item struct {
	k         int
	vu        int
	op, query string
	newVisit  bool
	due       time.Time // scheduled send time of the arrival
	readyAt   time.Time // earliest send: due, a Retry-After, or when its user came free
}

// itemHeap orders requests waiting to be sent by readyAt.
type itemHeap []*item

func (h itemHeap) Len() int           { return len(h) }
func (h itemHeap) Less(i, j int) bool { return h[i].readyAt.Before(h[j].readyAt) }
func (h itemHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)        { *h = append(*h, x.(*item)) }
func (h *itemHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// result is what happened to one arrival.
type result struct {
	op          string
	due, sent   time.Time
	done        time.Time // zero: never completed
	late        time.Duration
	status      int
	ok          bool
	affected    bool   // the first attempt failed: a 503, a 5xx, a connection error or a 401
	estab5xx    bool   // a plain 5xx reached an established session
	violation   string // a correctness check this response broke
	failure     string // why the request failed, when it did
	conflict    bool   // failed on the store's fail-fast row lock
	tries       int
	firstFailAt time.Time
}

// exchange is one HTTP round trip, kept only when tracing.
type exchange struct {
	id   int64
	took time.Duration
}

// gen is the open-loop generator: arrivals are due at a fixed rate from
// start, whatever the program's state, and are spread over conns
// keep-alive connections. Latency is taken from the due time.
type gen struct {
	base  string
	rate  float64
	start time.Time
	n     int // arrivals in this run
	conns int
	pop   *population
	drain time.Duration // how long after the last arrival stragglers may finish
	// traceID, when set, stamps each round trip with an X-Bench-Req id
	// and keeps its client-observed duration.
	traceID *atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	kBase    int
	drawn    int
	ready    itemHeap
	inflight int

	results   []result
	exMu      sync.Mutex
	exchanges []exchange
}

func (g *gen) dueOf(i int) time.Time {
	return g.start.Add(time.Duration(float64(i) / g.rate * float64(time.Second)))
}

// run sends every arrival and returns one result per arrival.
func (g *gen) run() []result {
	g.cond = sync.NewCond(&g.mu)
	g.kBase = g.pop.nextK
	g.pop.nextK += g.n
	g.results = make([]result, g.n)
	// Wake waiting workers now and then so the drain deadline is noticed
	// even when nothing completes.
	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				g.mu.Lock()
				g.cond.Broadcast()
				g.mu.Unlock()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < g.conns; i++ {
		tm, err := newTimer()
		if err != nil {
			panic(err) // timerfd exists on every Linux since 2.6.25
		}
		defer tm.close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{addr: strings.TrimPrefix(g.base, "http://")}
			defer c.close()
			g.work(c, tm)
		}()
	}
	wg.Wait()
	close(stop)
	<-ticked
	// Whatever is still queued missed the drain deadline.
	for _, it := range g.ready {
		g.results[it.k-g.kBase].op = it.op
		g.results[it.k-g.kBase].due = it.due
	}
	for i := range g.pop.vus {
		for _, it := range g.pop.vus[i].pending {
			g.results[it.k-g.kBase].op = it.op
			g.results[it.k-g.kBase].due = it.due
		}
		g.pop.vus[i].pending = nil
		g.pop.vus[i].busy = false
	}
	g.ready = nil
	return g.results
}

// take returns the next request to send, or nil when the run is over.
func (g *gen) take() *item {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		haveArr := g.drawn < g.n
		var arrDue time.Time
		if haveArr {
			arrDue = g.dueOf(g.drawn)
		}
		if len(g.ready) > 0 && (!haveArr || !g.ready[0].readyAt.After(arrDue)) {
			g.inflight++
			return heap.Pop(&g.ready).(*item)
		}
		if haveArr {
			k := g.kBase + g.drawn
			g.drawn++
			vu, op, q, nv := g.pop.src.next(k)
			it := &item{k: k, vu: vu, op: op, query: q, newVisit: nv, due: arrDue, readyAt: arrDue}
			u := &g.pop.vus[vu]
			if u.busy {
				u.pending = append(u.pending, it)
				continue
			}
			u.busy = true
			g.inflight++
			return it
		}
		if g.inflight == 0 && len(g.ready) == 0 {
			return nil
		}
		if time.Now().After(g.dueOf(g.n).Add(g.drain)) {
			return nil
		}
		g.cond.Wait()
	}
}

// release hands the user's next queued arrival to the ready heap.
func (g *gen) release(it *item, requeue bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if requeue {
		heap.Push(&g.ready, it)
	} else {
		u := &g.pop.vus[it.vu]
		if len(u.pending) > 0 {
			next := u.pending[0]
			u.pending = u.pending[1:]
			next.readyAt = time.Now()
			heap.Push(&g.ready, next)
		} else {
			u.busy = false
		}
	}
	g.cond.Broadcast()
}

func (g *gen) work(c *conn, tm *timer) {
	for {
		it := g.take()
		if it == nil {
			return
		}
		picked := time.Now()
		tm.sleepUntil(it.readyAt)
		r := &g.results[it.k-g.kBase]
		if r.tries == 0 {
			r.op, r.due = it.op, it.due
			r.sent = time.Now()
			// The generator's own lateness: how long after the later of
			// "due" and "a connection was free" the request left.
			from := it.due
			if picked.After(from) {
				from = picked
			}
			r.late = r.sent.Sub(from)
		}
		retryAfter := g.exec(c, it, r)
		if retryAfter > 0 {
			it.readyAt = time.Now().Add(retryAfter)
			g.release(it, true)
			continue
		}
		r.done = time.Now()
		g.release(it, false)
	}
}

// flowSteps maps the second step of each two-step flow to its first.
var flowSteps = map[string]string{
	ebid.CommitBid:          ebid.MakeBid,
	ebid.CommitBuyNow:       ebid.DoBuyNow,
	ebid.CommitUserFeedback: ebid.LeaveUserFeedback,
	ebid.RegisterNewItem:    ebid.OpSellForm,
}

// firstSteps is the set of operations that open a two-step flow.
var firstSteps = map[string]bool{
	ebid.MakeBid: true, ebid.DoBuyNow: true, ebid.LeaveUserFeedback: true, ebid.OpSellForm: true,
}

// exec sends one arrival the way a crash-only client would: a 503 with
// Retry-After is honoured (the returned wait re-queues the request), a
// 401 means the session lapsed, so the user logs in again, redoes an
// open two-step flow and repeats the request, and a refused or broken
// connection is retried on a fresh one.
func (g *gen) exec(c *conn, it *item, r *result) (retryAfter time.Duration) {
	u := &g.pop.vus[it.vu]
	if it.newVisit && r.tries == 0 {
		u.cookie, u.established, u.flowOp = u.cookie[:0], false, ""
	}
	fail := func(at time.Time) {
		if !r.affected {
			r.affected, r.firstFailAt = true, at
		}
	}
	for attempt := 0; attempt < 6; attempt++ {
		r.tries++
		at := time.Now()
		status, body, ra, err := g.roundTrip(c, u, it.op, it.query)
		if err != nil {
			fail(at)
			continue
		}
		r.status = status
		switch {
		case status == http.StatusServiceUnavailable && ra > 0:
			fail(at)
			return ra
		case status == http.StatusUnauthorized && it.op != ebid.Authenticate:
			fail(at)
			if !g.relogin(c, u) {
				return 0
			}
			if first, ok := flowSteps[it.op]; ok && u.flowOp == first {
				if st, _, _, err := g.roundTrip(c, u, u.flowOp, u.flowQuery); err != nil || st != http.StatusOK {
					return 0
				}
			}
			continue
		case status >= 500:
			fail(at)
			if bytes.Contains(body, []byte("lock conflict")) {
				r.conflict = true
			}
			if u.established {
				r.estab5xx = true
			}
			r.failure = failureDetail(it, status, body)
			return 0
		case status != http.StatusOK:
			fail(at)
			r.failure = failureDetail(it, status, body)
			return 0
		}
		if v := checkBody(it.op, it.query, body); v != "" {
			r.violation = v
			return 0
		}
		r.ok = true
		switch it.op {
		case ebid.Authenticate:
			u.established = true
			if n, err := strconv.ParseInt(strings.TrimPrefix(it.query, "user="), 10, 64); err == nil {
				u.authUser = n
			}
		case ebid.RegisterNewUser:
			u.established = true
		case ebid.OpLogout:
			u.established = false
		}
		switch {
		case firstSteps[it.op]:
			u.flowOp, u.flowQuery = it.op, it.query
		case flowSteps[it.op] != "":
			u.flowOp = ""
		}
		return 0
	}
	return 0
}

func failureDetail(it *item, status int, body []byte) string {
	if len(body) > 120 {
		body = body[:120]
	}
	return fmt.Sprintf("%s?%s: %d %q", it.op, it.query, status, bytes.TrimSpace(body))
}

// relogin logs the user in again after a session lapse.
func (g *gen) relogin(c *conn, u *vuState) bool {
	user := u.authUser
	if user <= 0 {
		user = 1
	}
	st, _, _, err := g.roundTrip(c, u, ebid.Authenticate, "user="+strconv.FormatInt(user, 10))
	if err != nil || st != http.StatusOK {
		u.established = false
		return false
	}
	u.established = true
	return true
}

// checkBody returns the correctness check a 200 body breaks, if any:
// no failure keyword, and a ViewItem names the item requested.
func checkBody(op, query string, body []byte) string {
	lower := bytes.ToLower(body)
	for _, kw := range []string{"exception", "error", "failed"} {
		if bytes.Contains(lower, []byte(kw)) {
			return fmt.Sprintf("%s?%s: 200 body holds %q", op, query, kw)
		}
	}
	if op == ebid.ViewItem {
		id := strings.TrimPrefix(query, "item=")
		if !bytes.Contains(body, []byte("item "+id+":")) {
			return fmt.Sprintf("ViewItem?%s: body %q does not name item %s", query, body, id)
		}
	}
	return ""
}

func (g *gen) roundTrip(c *conn, u *vuState, op, query string) (status int, body []byte, retryAfter time.Duration, err error) {
	path := "/ebid/" + op
	if query != "" {
		path += "?" + query
	}
	var id int64
	if g.traceID != nil {
		id = g.traceID.Add(1)
	}
	began := time.Now()
	status, body, retryAfter, cookie, err := c.get(path, u.cookie, id)
	if err != nil {
		return 0, nil, 0, err
	}
	if id != 0 {
		g.exMu.Lock()
		g.exchanges = append(g.exchanges, exchange{id: id, took: time.Since(began)})
		g.exMu.Unlock()
	}
	if cookie != nil {
		u.cookie = append(u.cookie[:0], cookie...)
	}
	return status, body, retryAfter, nil
}

// conn is one keep-alive HTTP/1.1 client connection, used by the
// generator and by the ladder's socket rungs. Requests are written by
// hand from a reused buffer and responses are parsed in place, so once
// its buffers are sized a request allocates nothing: the client's own
// cost stays small next to the server's, and the allocations a socket
// rung counts are the programs'.
type conn struct {
	addr   string
	c      net.Conn
	r      *bufio.Reader
	req    []byte
	body   []byte
	cookie []byte // the last response's session cookie
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

var errConn = errors.New("connection failed")

var (
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
	hdrRetryAfter    = []byte("retry-after:")
	hdrSetCookie     = []byte("set-cookie: " + sessionCookie + "=")
	hdrClose         = []byte("connection: close")
)

// sessionCookie is the cookie httpfront keeps a session in.
const sessionCookie = "EBIDSESSION"

// get sends one GET and reads the whole response. The returned body and
// setCookie (the session cookie's new value, nil when none was set) are
// valid until the next call.
func (c *conn) get(path string, cookie []byte, traceID int64) (status int, body []byte, retryAfter time.Duration, setCookie []byte, err error) {
	b := append(c.req[:0], "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: 127.0.0.1\r\n"...)
	if len(cookie) > 0 {
		b = append(b, "Cookie: "+sessionCookie+"="...)
		b = append(b, cookie...)
		b = append(b, "\r\n"...)
	}
	if traceID != 0 {
		b = append(b, "X-Bench-Req: "...)
		b = strconv.AppendInt(b, traceID, 10)
		b = append(b, "\r\n"...)
	}
	c.req = append(b, "\r\n"...)
	for try := 0; try < 2; try++ {
		if c.c == nil {
			nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
			if err != nil {
				return 0, nil, 0, nil, fmt.Errorf("%w: %v", errConn, err)
			}
			c.c = nc
			c.r = bufio.NewReaderSize(nc, 16<<10)
		}
		_ = c.c.SetDeadline(time.Now().Add(60 * time.Second))
		if _, err := c.c.Write(c.req); err != nil {
			c.close()
			continue // a keep-alive connection the server closed: redial once
		}
		status, retryAfter, setCookie, err = c.readResponse()
		if err != nil {
			c.close()
			if try == 0 && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				continue
			}
			return 0, nil, 0, nil, fmt.Errorf("%w: %v", errConn, err)
		}
		return status, c.body, retryAfter, setCookie, nil
	}
	return 0, nil, 0, nil, errConn
}

// readResponse parses one response into c.body. A response that asks to
// close the connection closes it once read.
func (c *conn) readResponse() (status int, retryAfter time.Duration, setCookie []byte, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, 0, nil, fmt.Errorf("bad status line %q", line)
	}
	if status = atoi(line[9:12], 10); status < 0 {
		return 0, 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		if line, err = c.r.ReadSlice('\n'); err != nil {
			return 0, 0, nil, unexpected(err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		switch {
		case hasPrefixFold(line, hdrContentLength):
			length = atoi(bytes.TrimSpace(line[len(hdrContentLength):]), 10)
		case hasPrefixFold(line, hdrChunked):
			chunked = true
		case hasPrefixFold(line, hdrRetryAfter):
			if secs := atoi(bytes.TrimSpace(line[len(hdrRetryAfter):]), 10); secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		case hasPrefixFold(line, hdrClose):
			closing = true
		case hasPrefixFold(line, hdrSetCookie):
			// The header line lives in the reader's buffer, which the
			// body may overwrite: keep a copy.
			v := line[len(hdrSetCookie):]
			if i := bytes.IndexByte(v, ';'); i >= 0 {
				v = v[:i]
			}
			c.cookie = append(c.cookie[:0], v...)
			setCookie = c.cookie
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			if line, err = c.r.ReadSlice('\n'); err != nil {
				return 0, 0, nil, unexpected(err)
			}
			n := atoi(bytes.TrimRight(line, "\r\n"), 16)
			if n < 0 {
				return 0, 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				if _, err = c.r.ReadSlice('\n'); err != nil { // the empty trailer
					return 0, 0, nil, unexpected(err)
				}
				break
			}
			if err = c.readBody(n); err != nil {
				return 0, 0, nil, err
			}
			if _, err = c.r.Discard(2); err != nil {
				return 0, 0, nil, unexpected(err)
			}
		}
	case length > 0:
		err = c.readBody(length)
	case length < 0 && closing:
		var rest []byte
		if rest, err = io.ReadAll(c.r); err == nil {
			c.body = append(c.body, rest...)
		}
	}
	if err != nil {
		return 0, 0, nil, err
	}
	if closing {
		c.close()
	}
	return status, retryAfter, setCookie, nil
}

// readBody appends the next n bytes of the response to c.body.
func (c *conn) readBody(n int) error {
	at := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.r, c.body[at:])
	return unexpected(err)
}

// unexpected turns an EOF in the middle of a response into
// io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func hasPrefixFold(b, prefix []byte) bool {
	return len(b) >= len(prefix) && bytes.EqualFold(b[:len(prefix)], prefix)
}

// atoi parses a non-negative number in base 10 or 16 without
// allocating; it returns -1 for anything else.
func atoi(b []byte, base int) int {
	if len(b) == 0 {
		return -1
	}
	n := 0
	for _, x := range b {
		var d int
		switch {
		case x >= '0' && x <= '9':
			d = int(x - '0')
		case base == 16 && x >= 'a' && x <= 'f':
			d = int(x-'a') + 10
		case base == 16 && x >= 'A' && x <= 'F':
			d = int(x-'A') + 10
		default:
			return -1
		}
		n = n*base + d
	}
	return n
}

// timer sleeps on a timerfd read through Go's network poller. The
// goroutine parks without holding a P and wakes within microseconds of
// its deadline; runtime timers (time.Sleep) wake up to a millisecond
// late, and a blocking nanosleep would hold a P that the connection
// goroutines need, stalling responses by milliseconds.
type timer struct{ f *os.File }

func newTimer() (*timer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &timer{f: os.NewFile(fd, "timerfd")}, nil
}

func (t *timer) close() { t.f.Close() }

// sleepUntil returns at deadline t, or at once when t has passed.
func (t *timer) sleepUntil(deadline time.Time) {
	d := time.Until(deadline)
	if d <= 0 {
		return
	}
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.f.Fd(), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d) // cannot happen for a valid fd and time; fall back to a coarse sleep
		return
	}
	var buf [8]byte
	_, _ = t.f.Read(buf[:]) // returns when the timer fires
}
