package schema

import (
	"strings"
	"testing"
)

func TestProjectionDiff(t *testing.T) {
	a := map[string]string{"node:A": "inst=3", "abstract-instances": "0"}
	if d := projectionDiff(a, map[string]string{"node:A": "inst=3", "abstract-instances": "0"}); d != "" {
		t.Errorf("equal projections diffed: %s", d)
	}
	d := projectionDiff(a, map[string]string{"node:A": "inst=4", "abstract-instances": "0", "node:B": "inst=1"})
	if !strings.Contains(d, "node:A") || !strings.Contains(d, "unexpected") {
		t.Errorf("diff missing detail: %s", d)
	}
}
