package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestNetarray runs the example in-process over loopback TCP: a failed element
// check ends it through log.Fatalf, which fails the test binary. Its output
// names ephemeral ports, so it is checked here rather than as an Output
// example.
func TestNetarray(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	func() {
		defer func() { os.Stdout = stdout }()
		main()
	}()
	w.Close()
	got := <-out
	if !strings.Contains(got, "verified 64 elements over TCP") {
		t.Fatalf("output lacks the verification line:\n%s", got)
	}
	for _, line := range []string{"node 0: 3 blocks", "node 3: 3 blocks"} {
		if !strings.Contains(got, line) {
			t.Fatalf("output lacks %q:\n%s", line, got)
		}
	}
}
