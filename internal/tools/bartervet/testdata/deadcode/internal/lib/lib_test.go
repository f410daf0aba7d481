package lib

import "testing"

func TestLimit(t *testing.T) {
	if Limit != 3 || helper() != 9 || (Box{}).Len() != 0 {
		t.Fatal("unreachable")
	}
}
