package lib

import (
	"testing"

	"barter/internal/tools/bartervet/testdata/deadcode/internal/testutil"
)

func TestLimit(t *testing.T) {
	if Limit != testutil.Three || helper() != 9 || (Box{}).Len() != 0 {
		t.Fatal("unreachable")
	}
}
