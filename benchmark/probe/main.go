// Command probe does nothing: it starts and exits. The augment workload
// times its start-up alternately with cmd/augment's, so that set-up is
// measured relative to what starting any Go program costs on the host at
// that moment. It imports no code of the repository, so no change under
// test moves it.
package main

func main() {}
