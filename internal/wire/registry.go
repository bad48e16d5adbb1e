package wire

import (
	"fmt"
	"reflect"
	"sync"
)

// Message tags. One byte selects the decoder for a tagged value: primitives
// are built in here, and protocol messages and application box values
// register codecs in their own packages. A value with no codec has no
// encoding: AppendAny returns an error for it. Tags are part of the wire
// format: they must never be renumbered, only retired. Retired, never to be
// reused: 0x0F (the reflective encoding/gob fallback for application values).
const (
	tagNil     byte = 0x00
	tagFalse   byte = 0x01
	tagTrue    byte = 0x02
	tagInt     byte = 0x03 // Go int, zigzag varint
	tagInt64   byte = 0x04
	tagUint64  byte = 0x05
	tagFloat64 byte = 0x06
	tagString  byte = 0x07
	tagBytes   byte = 0x08

	// TagMin is the lowest tag available to registered codecs. gcs uses
	// 0x10-0x1F, core/lease 0x20-0x2F, in-tree application box values
	// (internal/sortedset, internal/vacation) 0x30-0x3F; tests use 0x70+.
	TagMin byte = 0x10
)

// AppendFunc encodes one registered message (v has the registered concrete
// type) onto b. The error is reserved for nested AppendAny calls on
// application-provided fields; field encoding itself is infallible.
type AppendFunc func(b []byte, v any) ([]byte, error)

// ReadFunc decodes one registered message from r and returns it with the
// registered concrete type. Implementations must consume exactly the
// message's bytes and report malformed input through r's error latch (or a
// returned error).
type ReadFunc func(r *Reader) (any, error)

type codec struct {
	tag    byte
	name   string
	append AppendFunc
	read   ReadFunc
}

var registry = struct {
	sync.RWMutex
	byType map[reflect.Type]*codec
	byTag  [256]*codec
}{byType: make(map[reflect.Type]*codec)}

// Register installs a binary codec for the concrete type of prototype under
// the given tag. Registration is idempotent for the same (tag, type) pair —
// packages may call their Register* helpers repeatedly — and panics on a
// conflicting registration, which is a build bug, not an input condition.
func Register(tag byte, prototype any, app AppendFunc, read ReadFunc) {
	if tag < TagMin {
		panic(fmt.Sprintf("wire: tag 0x%02x collides with built-in primitives", tag))
	}
	t := reflect.TypeOf(prototype)
	c := &codec{tag: tag, name: t.String(), append: app, read: read}

	registry.Lock()
	defer registry.Unlock()
	if prev := registry.byTag[tag]; prev != nil {
		if prev.name == c.name {
			return // idempotent re-registration
		}
		panic(fmt.Sprintf("wire: tag 0x%02x registered for both %s and %s", tag, prev.name, c.name))
	}
	if prev, ok := registry.byType[t]; ok && prev.tag != tag {
		panic(fmt.Sprintf("wire: type %s registered under both 0x%02x and 0x%02x", c.name, prev.tag, tag))
	}
	registry.byTag[tag] = c
	registry.byType[t] = c
}

func lookupType(t reflect.Type) *codec {
	registry.RLock()
	c := registry.byType[t]
	registry.RUnlock()
	return c
}

func lookupTag(tag byte) *codec {
	registry.RLock()
	c := registry.byTag[tag]
	registry.RUnlock()
	return c
}

// AppendAny appends one tagged value: nil, a primitive, or a value of a
// registered type. The error is non-nil when v, or a value nested in it (a
// box value in a write-set), has a type with no codec.
func AppendAny(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case int:
		return AppendVarint(append(b, tagInt), int64(x)), nil
	case int64:
		return AppendVarint(append(b, tagInt64), x), nil
	case uint64:
		return AppendUvarint(append(b, tagUint64), x), nil
	case float64:
		return AppendFloat64(append(b, tagFloat64), x), nil
	case string:
		return AppendString(append(b, tagString), x), nil
	case []byte:
		return AppendBytes(append(b, tagBytes), x), nil
	}
	if c := lookupType(reflect.TypeOf(v)); c != nil {
		return c.append(append(b, c.tag), v)
	}
	return b, fmt.Errorf("wire: no codec for %T", v)
}

// ReadAny decodes one tagged value written by AppendAny. Hostile input yields
// an error, never a panic, and never an allocation beyond the input's length.
func ReadAny(r *Reader) (any, error) {
	tag := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagInt:
		return r.boxInt(int(r.Varint())), r.Err()
	case tagInt64:
		return r.Varint(), r.Err()
	case tagUint64:
		return r.Uvarint(), r.Err()
	case tagFloat64:
		return r.Float64(), r.Err()
	case tagString:
		return r.String(), r.Err()
	case tagBytes:
		return r.Bytes(), r.Err()
	}
	c := lookupTag(tag)
	if c == nil {
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownTag, tag)
	}
	v, err := c.read(r)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return v, nil
}
