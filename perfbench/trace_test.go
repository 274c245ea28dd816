package main

import (
	"testing"
	"time"
)

const us = time.Microsecond

func TestSelfTimesNested(t *testing.T) {
	// route [0,100] ⊃ front [10,90] ⊃ war [20,80] ⊃ op [25,75] ⊃
	// entity [30,40], entity [50,60], session.read [60,65].
	spans := []span{
		{id: 1, req: 7, name: "fleet.route", start: 0, end: 100 * us},
		{id: 2, parent: 1, req: 7, name: "httpfront", start: 10 * us, end: 90 * us},
		{id: 3, parent: 2, req: 7, name: "core.war", start: 20 * us, end: 80 * us},
		{id: 4, parent: 3, req: 7, name: "ebid.op", class: "read", start: 25 * us, end: 75 * us},
		{id: 5, parent: 4, req: 7, name: "ebid.entity", start: 30 * us, end: 40 * us},
		{id: 6, parent: 4, req: 7, name: "ebid.entity", start: 50 * us, end: 60 * us},
		{id: 7, parent: 4, req: 7, name: "session.read", start: 60 * us, end: 65 * us},
	}
	want := []time.Duration{20 * us, 20 * us, 10 * us, 25 * us, 10 * us, 10 * us, 5 * us}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s) self = %v, want %v", spans[i].id, spans[i].name, got[i], want[i])
		}
	}
	m := attribute(spans, map[int64]time.Duration{7: 130 * us})
	if m.requests != 1 || m.clientSelf != 30 || m.route != 20 || m.front != 20 || m.war != 10 ||
		m.opRead != 25 || m.entity != 20 || m.sessRead != 5 || m.hops != 4 || m.sessOps != 1 {
		t.Errorf("attribute = %+v", m)
	}
	sum := m.clientSelf + m.route + m.front + m.war + m.opAll + m.entity + m.sessRead + m.sessWrite
	if sum != m.client {
		t.Errorf("self times sum to %v µs, client saw %v µs", sum, m.client)
	}
}

func TestSelfTimesOverlappingAndOverhangingChildren(t *testing.T) {
	// Children overlap each other and one runs past its parent's end: the
	// covered part is the union, clipped to the parent.
	spans := []span{
		{id: 1, req: 1, name: "a", start: 0, end: 100 * us},
		{id: 2, parent: 1, req: 1, name: "b", start: 10 * us, end: 50 * us},
		{id: 3, parent: 1, req: 1, name: "c", start: 40 * us, end: 60 * us},
		{id: 4, parent: 1, req: 1, name: "d", start: 90 * us, end: 120 * us},
	}
	if got := selfTimes(spans)[0]; got != 40*us {
		t.Errorf("self = %v, want 40µs (100 - [10,60] - [90,100])", got)
	}
}

func TestTracerStackAndMixing(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	tr.on.Store(true)
	a := tr.begin("httpfront", "", 5)
	b := tr.begin("core.war", "", 0)
	tr.end(b)
	tr.end(a)
	if tr.mixed || tr.spans[1].parent != tr.spans[0].id || tr.spans[1].req != 5 {
		t.Fatalf("nested spans not linked: %+v mixed=%v", tr.spans, tr.mixed)
	}
	// Another request's span opening inside an open one breaks the
	// one-request-in-flight assumption.
	c := tr.begin("httpfront", "", 6)
	d := tr.begin("httpfront", "", 7)
	tr.end(d)
	tr.end(c)
	if !tr.mixed {
		t.Error("interleaved requests were not detected")
	}
	tr.on.Store(false)
	if i := tr.begin("x", "", 1); i != -1 {
		t.Error("a span was recorded while tracing was off")
	}
}
