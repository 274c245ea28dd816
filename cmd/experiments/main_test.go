package main

import (
	"strings"
	"testing"
)

func TestParseOnlyRejectsUnknownIDs(t *testing.T) {
	want, err := parseOnly(" brickcrash, Fleet,table4,")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 || !want["brickcrash"] || !want["fleet"] || !want["table4"] {
		t.Fatalf("parsed ids = %v", want)
	}
	if want, err := parseOnly(""); err != nil || len(want) != 0 {
		t.Fatalf("empty -only = %v, %v; want every experiment", want, err)
	}
	_, err = parseOnly("table1,brikcrash")
	if err == nil || !strings.Contains(err.Error(), `"brikcrash"`) {
		t.Fatalf("typo accepted or not named: %v", err)
	}
}
