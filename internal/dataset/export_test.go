package dataset

// SetLoadHook installs f to be called each time a DirSource reads its
// folder, and returns the function that removes it.
func SetLoadHook(f func(dir string)) (restore func()) {
	old := testHookLoad
	testHookLoad = f
	return func() { testHookLoad = old }
}
