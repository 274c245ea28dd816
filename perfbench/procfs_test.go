package main

import "testing"

func TestParseStat(t *testing.T) {
	// A command name holding spaces and parentheses must not shift the
	// fields after it.
	line := "4242 (ebid (server) x) S 4200 4242 4200 0 -1 4194560 1433 0 0 0 1234 567 0 0 20 0 9 0 98765 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	st, err := parseStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	want := procStat{PID: 4242, State: 'S', PPID: 4200, UTime: 1234, STime: 567, Start: 98765}
	if st != want {
		t.Errorf("parseStat = %+v, want %+v", st, want)
	}
	for _, bad := range []string{
		"",
		"12 no-parens S 1",
		"12 (short) S 1 2 3",
		"x (cmd) S 4200 4242 4200 0 -1 4194560 1433 0 0 0 1234 567 0 0 20 0 9 0 98765 1 2",
		"12 (cmd) S 4200 4242 4200 0 -1 4194560 1433 0 0 0 12x 567 0 0 20 0 9 0 98765 1 2",
	} {
		if _, err := parseStat([]byte(bad)); err == nil {
			t.Errorf("parseStat(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tebid-server\nVmPeak:\t  500000 kB\nVmHWM:\t  417060 kB\nVmRSS:\t  400000 kB\nThreads:\t9\n"
	if kb, err := parseStatusKB([]byte(status), "VmHWM"); err != nil || kb != 417060 {
		t.Errorf("VmHWM = %d, %v; want 417060", kb, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("a missing key was not reported")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("a value not in kB was accepted")
	}
}
