// Command gen is a tool, an entry point with no importer: silent.
package main

func main() {}
