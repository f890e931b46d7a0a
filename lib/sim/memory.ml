(* Paged little-endian byte-addressable memory.

   A memory is a table of 4 KiB pages covering [0, default_size).
   Every entry starts as [zero_page], one read-only page shared by
   every memory in every domain; a page gets its own [Bytes] on its
   first write.  Reads never allocate, so an emulation pays only for
   the pages its data image and stores touch.  An access that stays
   inside one page looks the page up once; only an access that crosses
   a page boundary goes byte by byte. *)

exception Fault of int

let default_size = 16 * 1024 * 1024

let page_bits = 12

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

(* Never written: [writable] replaces it before any store, so sharing
   it between memories and domains is sharing an immutable value. *)
let zero_page = Bytes.make page_size '\000'

(* 4096 entries, so the table itself (like every page) is allocated
   straight into the major heap. *)
type t = Bytes.t array

let create () = Array.make (default_size lsr page_bits) zero_page

(* Same bounds as a flat [default_size] image: every byte of
   [addr, addr + n) must lie inside it. *)
let[@inline] check addr n = if addr < 0 || addr > default_size - n then raise (Fault addr)

let[@inline] page t addr = Array.unsafe_get t (addr lsr page_bits)

let[@inline never] fresh_page t i =
  let p = Bytes.make page_size '\000' in
  Array.unsafe_set t i p;
  p

(* [addr]'s page, given its own bytes on the first write. *)
let[@inline] writable t addr =
  let i = addr lsr page_bits in
  let p = Array.unsafe_get t i in
  if p != zero_page then p else fresh_page t i

(* True when [n] bytes at [addr] stay inside [addr]'s page. *)
let[@inline] in_page addr n = addr land page_mask <= page_size - n

let[@inline] get t addr = Char.code (Bytes.unsafe_get (page t addr) (addr land page_mask))

let[@inline] set t addr v =
  Bytes.unsafe_set (writable t addr) (addr land page_mask) (Char.unsafe_chr (v land 0xff))

let read_byte_u t addr =
  check addr 1;
  get t addr

let read_byte_s t addr =
  let v = read_byte_u t addr in
  if v >= 0x80 then v - 0x100 else v

let read_half_u t addr =
  check addr 2;
  if in_page addr 2 then Bytes.get_uint16_le (page t addr) (addr land page_mask)
  else get t addr lor (get t (addr + 1) lsl 8)

let read_half_s t addr =
  let v = read_half_u t addr in
  if v >= 0x8000 then v - 0x10000 else v

let read_word t addr =
  check addr 4;
  if in_page addr 4 then Int32.to_int (Bytes.get_int32_le (page t addr) (addr land page_mask))
  else
    Elag_isa.Alu.norm
      (get t addr
      lor (get t (addr + 1) lsl 8)
      lor (get t (addr + 2) lsl 16)
      lor (get t (addr + 3) lsl 24))

let write_byte t addr v =
  check addr 1;
  set t addr v

let write_half t addr v =
  check addr 2;
  if in_page addr 2 then Bytes.set_int16_le (writable t addr) (addr land page_mask) v
  else begin
    set t addr v;
    set t (addr + 1) (v lsr 8)
  end

let write_word t addr v =
  check addr 4;
  if in_page addr 4 then
    Bytes.set_int32_le (writable t addr) (addr land page_mask) (Int32.of_int v)
  else begin
    set t addr v;
    set t (addr + 1) (v lsr 8);
    set t (addr + 2) (v lsr 16);
    set t (addr + 3) (v lsr 24)
  end

(* Copy [len] bytes of [s] from [src] to [addr], one page at a time. *)
let rec blit_string t s src addr len =
  if len > 0 then begin
    let off = addr land page_mask in
    let room = page_size - off in
    let n = if len < room then len else room in
    Bytes.blit_string s src (writable t addr) off n;
    blit_string t s (src + n) (addr + n) (len - n)
  end

let rec load_image t = function
  | [] -> ()
  | (addr, s) :: rest ->
    let len = String.length s in
    check addr len;
    blit_string t s 0 addr len;
    load_image t rest
