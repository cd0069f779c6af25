package serde

// Test-only aliases so the external serde_test package (which may import
// packages that import serde, like nova) can reuse the internal fixtures.
type (
	Everything    = everything
	Particle      = particle
	VersionedBlob = versionedBlob
)
