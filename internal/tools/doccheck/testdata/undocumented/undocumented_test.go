package undocumented

func InTestFile() {}
