package dos

import (
	"os"

	"graphz/internal/storage"
)

// hostSuffixes are the files a converted graph is made of: the set Export
// writes to the host filesystem and Import reads back.
var hostSuffixes = [...]string{suffixEdges, suffixMeta, suffixNew2Old, suffixOld2New}

// Export writes g's files to the host filesystem as hostPrefix.edges,
// .meta, .new2old and .old2new.
func Export(g *Graph, hostPrefix string) error {
	for _, suffix := range hostSuffixes {
		data, err := storage.ReadAllFile(g.dev, g.prefix+suffix)
		if err != nil {
			return err
		}
		if err := os.WriteFile(hostPrefix+suffix, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Import copies the host files Export wrote onto dev under prefix and loads
// the graph from there. The files come from outside the program — an
// out-of-range adjacency entry would otherwise index vertex state — so they
// are loaded and verified first on a scratch device: nothing reaches dev
// unless they pass, and dev's statistics and modeled clock describe the
// caller's work, not the check.
func Import(dev *storage.Device, hostPrefix, prefix string) (*Graph, error) {
	var files [len(hostSuffixes)][]byte
	for i, suffix := range hostSuffixes {
		data, err := os.ReadFile(hostPrefix + suffix)
		if err != nil {
			return nil, err
		}
		files[i] = data
	}
	put := func(d *storage.Device) (*Graph, error) {
		for i, suffix := range hostSuffixes {
			if err := storage.WriteAll(d, prefix+suffix, files[i]); err != nil {
				return nil, err
			}
		}
		return Load(d, prefix)
	}
	g, err := put(storage.NewDevice(storage.NullDevice, storage.Options{}))
	if err == nil {
		err = Verify(g)
	}
	if err != nil {
		return nil, err
	}
	return put(dev)
}
