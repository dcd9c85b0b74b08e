package tuplex

// DecodeJob exposes the client's job-document decoder to the external
// test package.
var DecodeJob = decodeJob
