package classfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary module format: a magic header, a version, then the program's string
// pool, classes (with fields and methods), reference tables, and entry point.
// All integers are little-endian; strings are length-prefixed UTF-8. The
// format stores the pre-link symbolic program; Read returns an unlinked
// Program that callers must Link.

const (
	moduleMagic   = 0x4A544D31 // "JTM1"
	moduleVersion = 1
	maxStringLen  = 1 << 24
	maxCount      = 1 << 20
)

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *writer) u32(v uint32) {
	if w.err == nil {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		_, w.err = w.w.Write(b[:])
	}
}

func (w *writer) str(s string) {
	if len(s) > maxStringLen {
		w.err = fmt.Errorf("classfile: write: string too long (%d bytes)", len(s))
		return
	}
	w.u32(uint32(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

// Write serializes the program in module format.
func Write(out io.Writer, p *Program) error {
	w := &writer{w: bufio.NewWriter(out)}
	w.u32(moduleMagic)
	w.u32(moduleVersion)

	w.u32(uint32(len(p.Strings)))
	for _, s := range p.Strings {
		w.str(s)
	}

	w.u32(uint32(len(p.Classes)))
	for _, c := range p.Classes {
		w.str(c.Name)
		w.str(c.SuperName)
		w.u32(uint32(len(c.Fields)))
		for _, f := range c.Fields {
			w.str(f.Name)
			w.u8(uint8(f.Type))
			if f.Static {
				w.u8(1)
			} else {
				w.u8(0)
			}
		}
		w.u32(uint32(len(c.Methods)))
		for _, m := range c.Methods {
			w.str(m.Name)
			w.u8(uint8(m.Ret))
			var flags uint8
			if m.Static {
				flags |= 1
			}
			if m.Abstract {
				flags |= 2
			}
			w.u8(flags)
			w.u32(uint32(len(m.Params)))
			for _, t := range m.Params {
				w.u8(uint8(t))
			}
			w.u32(uint32(m.MaxLocals))
			w.str(m.Native)
			w.bytes(m.Code)
			w.u32(uint32(len(m.Handlers)))
			for _, h := range m.Handlers {
				w.u32(h.StartPC)
				w.u32(h.EndPC)
				w.u32(h.HandlerPC)
				w.u32(uint32(h.ClassIdx))
			}
		}
	}

	w.u32(uint32(len(p.MethodRefs)))
	for _, r := range p.MethodRefs {
		w.str(r.ClassName)
		w.str(r.Name)
		w.u8(uint8(r.Kind))
	}
	w.u32(uint32(len(p.FieldRefs)))
	for _, r := range p.FieldRefs {
		w.str(r.ClassName)
		w.str(r.Name)
		if r.Static {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
	w.str(p.EntryClass)
	w.str(p.EntryMethod)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.err = err
		return 0
	}
	return b
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	var b [4]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.err = err
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) count(what string) int {
	n := r.u32()
	if r.err == nil && n > maxCount {
		r.err = fmt.Errorf("classfile: read: implausible %s count %d", what, n)
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.err = fmt.Errorf("classfile: read: implausible string length %d", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return ""
	}
	return string(b)
}

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n > maxStringLen {
		r.err = fmt.Errorf("classfile: read: implausible code length %d", n)
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return nil
	}
	return b
}

func (r *reader) typ() Type {
	t := Type(r.u8())
	if r.err == nil && t > TRef {
		r.err = fmt.Errorf("classfile: read: invalid type %d", t)
	}
	return t
}

// Read deserializes a module. The returned program is unlinked, and so
// unverified: Link verifies it.
func Read(in io.Reader) (*Program, error) {
	r := &reader{r: bufio.NewReader(in)}
	if m := r.u32(); r.err == nil && m != moduleMagic {
		return nil, fmt.Errorf("classfile: read: bad magic %#x", m)
	}
	if v := r.u32(); r.err == nil && v != moduleVersion {
		return nil, fmt.Errorf("classfile: read: unsupported version %d", v)
	}
	p := &Program{}

	for i, n := 0, r.count("string"); i < n && r.err == nil; i++ {
		p.Strings = append(p.Strings, r.str())
	}
	for i, n := 0, r.count("class"); i < n && r.err == nil; i++ {
		c := &Class{Name: r.str(), SuperName: r.str()}
		for j, nf := 0, r.count("field"); j < nf && r.err == nil; j++ {
			f := &Field{Name: r.str(), Type: r.typ(), Static: r.u8() != 0}
			c.Fields = append(c.Fields, f)
		}
		for j, nm := 0, r.count("method"); j < nm && r.err == nil; j++ {
			m := &Method{Name: r.str(), Ret: r.typ()}
			flags := r.u8()
			m.Static = flags&1 != 0
			m.Abstract = flags&2 != 0
			for k, np := 0, r.count("param"); k < np && r.err == nil; k++ {
				m.Params = append(m.Params, r.typ())
			}
			m.MaxLocals = int(r.u32())
			m.Native = r.str()
			m.Code = r.bytes()
			for k, nh := 0, r.count("handler"); k < nh && r.err == nil; k++ {
				m.Handlers = append(m.Handlers, Handler{
					StartPC:   r.u32(),
					EndPC:     r.u32(),
					HandlerPC: r.u32(),
					ClassIdx:  int32(r.u32()),
				})
			}
			c.Methods = append(c.Methods, m)
		}
		p.Classes = append(p.Classes, c)
	}
	for i, n := 0, r.count("method ref"); i < n && r.err == nil; i++ {
		ref := MethodRef{ClassName: r.str(), Name: r.str(), Kind: RefKind(r.u8())}
		if r.err == nil && ref.Kind > RefSpecial {
			return nil, fmt.Errorf("classfile: read: invalid method ref kind %d", ref.Kind)
		}
		p.MethodRefs = append(p.MethodRefs, ref)
	}
	for i, n := 0, r.count("field ref"); i < n && r.err == nil; i++ {
		p.FieldRefs = append(p.FieldRefs, FieldRef{ClassName: r.str(), Name: r.str(), Static: r.u8() != 0})
	}
	p.EntryClass = r.str()
	p.EntryMethod = r.str()
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}
