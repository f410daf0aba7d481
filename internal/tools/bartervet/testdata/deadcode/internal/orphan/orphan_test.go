package orphan_test

import _ "barter/internal/tools/bartervet/testdata/deadcode/internal/orphan"
