package lib

import "testing"

func TestLimit(t *testing.T) {
	if Limit != 3 || helper() != 2 {
		t.Fatal("unreachable")
	}
}
