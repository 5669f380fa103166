package sparse

import "testing"

// TestOptionsDefaults checks the zero-value handling of Options helpers.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if o.groups() != 1 {
		t.Fatalf("groups() = %d, want 1", o.groups())
	}
	if o.thR() != 2.0 {
		t.Fatalf("thR() = %v, want 2", o.thR())
	}
	o.Groups = 4
	o.CartesianMode = true
	if o.groups() != 1 {
		t.Fatalf("cartesian mode must force one group, got %d", o.groups())
	}
	o.CartesianMode = false
	if o.groups() != 4 {
		t.Fatalf("groups() = %d, want 4", o.groups())
	}
}
