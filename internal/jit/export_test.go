package jit

// ResetVerifiedCleanForTest empties the process-wide verified-clean
// cache, so a test that counts full verifier analyses sees what a fresh
// process runs, whatever ran before it in the test binary.
func ResetVerifiedCleanForTest() {
	verifyCache.Lock()
	verifyCache.m = make(map[verifyKey]struct{})
	verifyCache.Unlock()
}
