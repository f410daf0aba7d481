package undocumented_test

func InExternalTest() {}
