package bench

import (
	"strings"
	"testing"
)

// Every experiment must run clean in quick mode and produce non-empty
// tables; this is the integration test for the whole engine stack.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(true)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows()) == 0 {
					t.Errorf("table %s has no rows", tb.ID)
				}
				if !strings.Contains(tb.String(), tb.ID) {
					t.Errorf("String() missing id")
				}
				if !strings.Contains(tb.Markdown(), "|") {
					t.Errorf("Markdown() malformed")
				}
			}
		})
	}
}
