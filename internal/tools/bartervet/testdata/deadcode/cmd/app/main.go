// Command app imports lib, so lib has an importer.
package main

import "barter/internal/tools/bartervet/testdata/deadcode/internal/lib"

func main() { _ = lib.Used() }
