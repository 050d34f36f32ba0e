// Package obs stubs the repo's observability core for analyzer fixtures:
// seedpure must flag any import of it from a deterministic-domain file.
package obs

// On reports whether observability is enabled.
func On() bool { return false }
